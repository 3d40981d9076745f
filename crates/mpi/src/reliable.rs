//! Reliable-transport layer: sequence numbers, a per-source reorder
//! buffer, duplicate suppression, and ack-based retransmit with
//! deadline + exponential backoff on the virtual clock.
//!
//! When [`ReliabilityConfig::enabled`] is set, the communicator runs
//! every point-to-point frame through this protocol *underneath* the
//! virtual-time model:
//!
//! - every frame carries a per-`(src, dst)` sequence number;
//! - the receiver ingests frames through a [`ReorderBuffer`] that
//!   releases them strictly in sequence order, so network reordering is
//!   invisible to the `(src, tag)` matcher;
//! - a frame with an already-delivered (or already-buffered) sequence
//!   number is a duplicate and is suppressed;
//! - a dropped frame is retransmitted: the sender re-offers it to the
//!   fault layer with a bumped [`MsgCtx::attempt`](crate::fault::MsgCtx)
//!   after a virtual backoff of [`RETRANSMIT_DEADLINE`] ×
//!   [`BACKOFF`]^(attempt−1) seconds, up to [`MAX_ATTEMPTS`] tries. The
//!   simulated network acks every frame that actually gets through,
//!   which is what terminates the retry loop.
//!
//! The protocol is **timing-transparent**: retransmits and backoff are
//! modeled as NIC-level bookkeeping that overlaps the latency already
//! charged for the message, and recovered frames are delivered with
//! their *original* send stamp. Injected delays are likewise masked
//! (the protocol's redundant transmission wins the race). The result is
//! the property the chaos harness asserts: a run under any
//! non-killing fault schedule is bit-identical — results, per-rank
//! stats, makespan — to the fault-free run, while the protocol's
//! effort shows up only in the metrics shards ([`RETRANSMITS`],
//! [`DUPLICATES_DROPPED`], [`REORDER_DEPTH`], …).
//!
//! A fault layer that drops a message on *every* attempt (e.g. a
//! [`Matching`](crate::fault::Matching) drop rule) would retry forever;
//! after [`MAX_ATTEMPTS`] the transport forces delivery and counts it in
//! [`RETRANSMIT_EXHAUSTED`]. Genuine unrecoverable loss is modeled by
//! rank death (see [`FaultLayer::kill_at_boundary`](crate::fault::FaultLayer)),
//! not by infinite message loss.

/// Metric name: frames retransmitted after a drop.
pub const RETRANSMITS: &str = "mpi.reliable.retransmits";
/// Metric name: frames force-delivered after exhausting the retry budget.
pub const RETRANSMIT_EXHAUSTED: &str = "mpi.reliable.retransmit_exhausted";
/// Metric name: duplicate frames suppressed by sequence numbers.
pub const DUPLICATES_DROPPED: &str = "mpi.reliable.duplicates_dropped";
/// Metric name: out-of-order frames parked in the reorder buffer.
pub const REORDER_BUFFERED: &str = "mpi.reliable.reorder_buffered";
/// Metric name (histogram): reorder-buffer depth observed at each park.
pub const REORDER_DEPTH: &str = "mpi.reliable.reorder_depth";
/// Metric name: frames acked by the simulated network (in-order
/// deliveries, counting released runs).
pub const ACKS: &str = "mpi.reliable.acks";
/// Metric name (histogram): retransmit backoff waits, in virtual
/// microseconds.
pub const BACKOFF_MICROS: &str = "mpi.reliable.backoff_us";
/// Metric name: injected delays masked by the protocol.
pub const MASKED_DELAYS: &str = "mpi.reliable.masked_delays";
/// Metric name: corrupt frames intercepted at the sender and healed by
/// retransmission — a corruption fault handled exactly like a drop, so
/// corruption schedules stay byte-invisible to the algorithms.
pub const CORRUPT_DROPPED: &str = "mpi.reliable.corrupt_dropped";

/// Virtual seconds before the first retransmit of an unacked frame.
pub const RETRANSMIT_DEADLINE: f64 = 1e-3;
/// Exponential backoff multiplier between retransmit attempts.
pub const BACKOFF: f64 = 2.0;
/// Total transmission attempts per frame before the transport forces
/// delivery (and counts [`RETRANSMIT_EXHAUSTED`]).
pub const MAX_ATTEMPTS: u32 = 16;

/// The reliable transport's switch. Off by default: injected drops and
/// delays stay visible unless a caller opts in.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReliabilityConfig {
    pub enabled: bool,
}

impl ReliabilityConfig {
    /// The transport enabled.
    pub fn on() -> Self {
        ReliabilityConfig { enabled: true }
    }

    /// Disabled (raw fault semantics). Same as `default()`.
    pub fn off() -> Self {
        ReliabilityConfig::default()
    }
}

/// Backoff before retransmit attempt `attempt` (1-based): the deadline
/// for the first retry, multiplied by [`BACKOFF`] for each further one.
pub(crate) fn backoff_delay(attempt: u32) -> f64 {
    RETRANSMIT_DEADLINE * BACKOFF.powi(attempt.saturating_sub(1) as i32)
}

/// Outcome of ingesting one frame into a [`ReorderBuffer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// The frame (and possibly a run of buffered successors) was
    /// released in order.
    Delivered,
    /// Sequence number already seen — duplicate, suppressed.
    Duplicate,
    /// Out of order — parked until the gap fills.
    Buffered,
}

/// Per-source receive window: releases frames strictly in sequence
/// order, parks early arrivals, suppresses duplicates.
#[derive(Debug, Default)]
pub struct ReorderBuffer<T> {
    expected: u64,
    parked: std::collections::BTreeMap<u64, T>,
}

impl<T> ReorderBuffer<T> {
    pub fn new() -> Self {
        ReorderBuffer {
            expected: 0,
            parked: std::collections::BTreeMap::new(),
        }
    }

    /// Ingest a frame with sequence number `seq`; in-order releases are
    /// appended to `out`.
    pub(crate) fn ingest(&mut self, seq: u64, frame: T, out: &mut Vec<T>) -> Ingest {
        if seq < self.expected || self.parked.contains_key(&seq) {
            return Ingest::Duplicate;
        }
        if seq != self.expected {
            self.parked.insert(seq, frame);
            return Ingest::Buffered;
        }
        out.push(frame);
        self.expected += 1;
        while let Some(next) = self.parked.remove(&self.expected) {
            out.push(next);
            self.expected += 1;
        }
        Ingest::Delivered
    }

    /// Frames currently parked out of order.
    pub(crate) fn depth(&self) -> usize {
        self.parked.len()
    }

    /// The next sequence number this buffer will release.
    pub fn expected(&self) -> u64 {
        self.expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(
        buf: &mut ReorderBuffer<&'static str>,
        seq: u64,
        frame: &'static str,
    ) -> Vec<&'static str> {
        let mut out = Vec::new();
        buf.ingest(seq, frame, &mut out);
        out
    }

    #[test]
    fn in_order_passes_through() {
        let mut buf = ReorderBuffer::new();
        assert_eq!(drain(&mut buf, 0, "a"), vec!["a"]);
        assert_eq!(drain(&mut buf, 1, "b"), vec!["b"]);
        assert_eq!(buf.depth(), 0);
        assert_eq!(buf.expected(), 2);
    }

    #[test]
    fn reordered_frames_are_released_in_sequence() {
        let mut buf = ReorderBuffer::new();
        let mut out = Vec::new();
        assert_eq!(buf.ingest(2, "c", &mut out), Ingest::Buffered);
        assert_eq!(buf.ingest(1, "b", &mut out), Ingest::Buffered);
        assert_eq!(buf.depth(), 2);
        assert!(out.is_empty());
        assert_eq!(buf.ingest(0, "a", &mut out), Ingest::Delivered);
        assert_eq!(out, vec!["a", "b", "c"], "gap fill releases the run");
        assert_eq!(buf.depth(), 0);
    }

    #[test]
    fn duplicates_are_suppressed() {
        let mut buf = ReorderBuffer::new();
        let mut out = Vec::new();
        buf.ingest(0, "a", &mut out);
        assert_eq!(buf.ingest(0, "a2", &mut out), Ingest::Duplicate);
        assert_eq!(buf.ingest(2, "c", &mut out), Ingest::Buffered);
        assert_eq!(
            buf.ingest(2, "c2", &mut out),
            Ingest::Duplicate,
            "parked dup"
        );
        assert_eq!(out, vec!["a"]);
    }

    #[test]
    fn backoff_grows_exponentially() {
        assert_eq!(backoff_delay(1), 1e-3);
        assert_eq!(backoff_delay(2), 2e-3);
        assert_eq!(backoff_delay(4), 8e-3);
        // The last retransmit before delivery is forced.
        assert_eq!(backoff_delay(MAX_ATTEMPTS - 1), 1e-3 * 16_384.0);
    }

    #[test]
    fn default_is_off() {
        assert!(!ReliabilityConfig::default().enabled);
        assert!(!ReliabilityConfig::off().enabled);
        assert!(ReliabilityConfig::on().enabled);
    }
}
