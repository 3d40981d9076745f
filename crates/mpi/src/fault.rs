//! Fault injection: a hook point on the send path where a
//! message-delay/drop/reorder/duplicate layer can attach.
//!
//! This closes the ROADMAP's fault-injection item: the communicator
//! consults an optional [`FaultLayer`] for every outgoing message and
//! applies the returned [`FaultAction`]. A dropped message is charged to
//! the sender exactly like a delivered one (the network lost it *after*
//! the NIC accepted it) but never reaches the receiver. A delayed
//! message arrives intact but with extra virtual latency. A reordered
//! message is held back and overtaken by the next message to the same
//! destination; a duplicated message arrives twice.
//!
//! Faults interact with the reliability layer
//! ([`ReliabilityConfig`](crate::reliable::ReliabilityConfig)): with
//! reliability off (the default), every injected fault is visible to the
//! application — drops stall receivers, delays shift virtual clocks,
//! reorders and duplicates corrupt FIFO expectations. With reliability
//! on, the transport masks all four: sequence numbers + a reorder buffer
//! undo reordering and suppress duplicates, and retransmits (re-consulting
//! the layer with a bumped [`MsgCtx::attempt`]) recover drops, so a
//! faulty run is bit-identical to a fault-free one.
//!
//! Beyond message faults, a layer can schedule **rank deaths** via
//! [`FaultLayer::kill_at_boundary`]: the victim observes
//! [`PhaseControl::SelfKilled`](crate::comm::PhaseControl) at the given
//! phase boundary and survivors observe `PeersDied`, which is what the
//! parallel algorithms' phase-boundary recovery
//! ([`Comm::boundary`](crate::comm::Comm::boundary) →
//! [`Comm::shrink_world`](crate::comm::Comm::shrink_world)) is driven by.
//!
//! The hook is test/bench-only by convention: production entry points
//! ([`run`](crate::run), [`Comm::solo`](crate::comm::Comm::solo)) never
//! attach a layer; callers go through
//! [`run_instrumented`](crate::run_instrumented) with
//! [`InstrumentConfig::fault`](crate::comm::InstrumentConfig) set.
//! Injections are observable: the sender's metrics shard counts
//! [`FAULTS_DROPPED`] / [`FAULTS_DELAYED`] / [`FAULTS_REORDERED`] /
//! [`FAULTS_DUPLICATED`].

/// Metric name: messages a fault layer dropped on this rank.
pub const FAULTS_DROPPED: &str = "mpi.fault.dropped";
/// Metric name: messages a fault layer delayed on this rank.
pub const FAULTS_DELAYED: &str = "mpi.fault.delayed";
/// Metric name: messages a fault layer reordered (held back) on this rank.
pub const FAULTS_REORDERED: &str = "mpi.fault.reordered";
/// Metric name: messages a fault layer duplicated on this rank.
pub const FAULTS_DUPLICATED: &str = "mpi.fault.duplicated";
/// Metric name: messages a fault layer corrupted on this rank. With
/// reliability on the corrupt frame is never transmitted (the
/// retransmit path resends it clean); with reliability off the marked
/// frame goes on the wire and the receiver refuses it with
/// [`CommError::Corrupt`](crate::error::CommError).
pub const FAULTS_CORRUPTED: &str = "mpi.fault.corrupted";
/// Metric name: frames abandoned because the destination had already
/// exited. Only possible under chaos: a redundant copy (duplicate,
/// retransmit) racing the receiver's completion, or a send racing a
/// scheduled rank death before the sender's next checkpoint — either
/// way the frame has no consumer.
pub const SENDS_TO_EXITED: &str = "mpi.fault.sends_to_exited";

/// One outgoing message, as seen by a fault layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsgCtx {
    pub src: usize,
    pub dst: usize,
    pub tag: u32,
    /// Payload size in bytes (wire-encoded).
    pub bytes: usize,
    /// Sequence number of this send on the source rank (0-based, counts
    /// every send including collective-internal ones).
    pub seq: u64,
    /// Transmission attempt: 0 for the first try, bumped by the reliable
    /// transport on every retransmit of the same message. Layers that
    /// drop unconditionally regardless of `attempt` exhaust the
    /// transport's retry budget (see
    /// [`MAX_ATTEMPTS`](crate::reliable::MAX_ATTEMPTS)).
    pub attempt: u32,
}

/// What to do with one message.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FaultAction {
    /// Deliver normally.
    #[default]
    Deliver,
    /// Deliver, but add this many *virtual* seconds of extra latency.
    /// Masked (metrics-only) when the reliable transport is on.
    Delay(f64),
    /// Never deliver. The sender is charged as usual. Recovered by
    /// retransmission when the reliable transport is on.
    Drop,
    /// Hold this message back and let the next message to the same
    /// destination overtake it (the held frame is released right after
    /// the overtaking one, or at the sender's next receive, phase
    /// boundary, or exit — whichever comes first, so a held frame can
    /// never deadlock the run).
    Reorder,
    /// Deliver two copies. The reliable transport suppresses the second.
    Duplicate,
    /// Corrupt the frame in transit. With the reliable transport on, the
    /// corruption is detected before the frame leaves the sender and
    /// handled exactly like [`FaultAction::Drop`] (a counted retransmit
    /// heals it); with reliability off the frame is transmitted marked,
    /// and the receiver surfaces
    /// [`CommError::Corrupt`](crate::error::CommError) instead of ever
    /// delivering its value.
    Corrupt,
}

/// A message-level fault model. Implementations must be deterministic
/// functions of the [`MsgCtx`] if run reproducibility matters (every
/// built-in model is; a shared mutable RNG would be consulted in host
/// scheduling order and break determinism).
///
/// Any `Fn(&MsgCtx) -> FaultAction` closure is one, which is the
/// simplest way to put one fault on one edge:
///
/// ```
/// use pgr_mpi::fault::{FaultAction, FaultLayer, MsgCtx};
/// let lossy_edge = |m: &MsgCtx| match (m.src, m.dst) {
///     (1, 0) => FaultAction::Drop,
///     _ => FaultAction::Deliver,
/// };
/// let ctx = MsgCtx { src: 1, dst: 0, tag: 7, bytes: 16, seq: 0, attempt: 0 };
/// assert_eq!(lossy_edge.on_send(&ctx), FaultAction::Drop);
/// ```
pub trait FaultLayer: Send + Sync {
    fn on_send(&self, ctx: &MsgCtx) -> FaultAction;

    /// Rank-death schedule: `Some(b)` means `rank` dies at the `b`-th
    /// phase boundary it reaches (0-based count of
    /// [`Comm::boundary`](crate::comm::Comm::boundary) calls). The
    /// default layer kills nobody.
    fn kill_at_boundary(&self, _rank: usize) -> Option<u64> {
        None
    }

    /// Checkpoint-corruption schedule: `true` means the stored snapshots
    /// of `(attempt, phase_idx)` are to be marked corrupt before a
    /// recovery round fetches them, forcing the checkpoint resume to
    /// reject the boundary and fall back to a full restart.
    /// The default layer corrupts nothing.
    fn corrupt_checkpoint(&self, _attempt: u32, _phase_idx: usize) -> bool {
        false
    }
}

/// Any `Fn(&MsgCtx) -> FaultAction` closure is a fault layer.
impl<F> FaultLayer for F
where
    F: Fn(&MsgCtx) -> FaultAction + Send + Sync,
{
    fn on_send(&self, ctx: &MsgCtx) -> FaultAction {
        self(ctx)
    }
}

/// A randomized fault schedule for chaos testing.
///
/// Per-message probabilities must sum to at most 1; the remainder is
/// clean delivery. Kills are `(rank, boundary)` pairs consumed by
/// [`FaultLayer::kill_at_boundary`].
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed; every per-message decision is a pure function of
    /// `(seed, src, dst, tag, seq, attempt)`.
    pub seed: u64,
    /// Probability a message (or retransmit) is dropped.
    pub drop: f64,
    /// Probability a message is reordered (held back).
    pub reorder: f64,
    /// Probability a message is duplicated.
    pub duplicate: f64,
    /// Probability a message is delayed by [`ChaosConfig::delay_secs`].
    pub delay: f64,
    /// Virtual seconds of injected delay.
    pub delay_secs: f64,
    /// Probability a message is corrupted in transit.
    pub corrupt: f64,
    /// Rank-death schedule: `(rank, phase boundary index)`.
    pub kills: Vec<(usize, u64)>,
    /// Checkpoint-corruption schedule: `(attempt, phase index)` store
    /// boundaries whose snapshots rot before recovery fetches them
    /// (consumed by [`FaultLayer::corrupt_checkpoint`]).
    pub ckpt_corrupt: Vec<(u32, usize)>,
}

impl ChaosConfig {
    /// A schedule that exercises the four original message faults but
    /// kills nobody — the "non-lossy at the algorithm level" schedule
    /// the chaos harness compares byte-for-byte against clean runs.
    pub fn messages_only(seed: u64) -> Self {
        ChaosConfig {
            seed,
            drop: 0.03,
            reorder: 0.03,
            duplicate: 0.02,
            delay: 0.03,
            delay_secs: 1e-4,
            corrupt: 0.0,
            kills: Vec::new(),
            ckpt_corrupt: Vec::new(),
        }
    }

    /// [`ChaosConfig::messages_only`] plus seeded corruption —
    /// all five message faults active, still no kills. With the
    /// reliable transport on this schedule is byte-invisible too.
    pub fn messages_with_corruption(seed: u64) -> Self {
        ChaosConfig {
            corrupt: 0.03,
            ..ChaosConfig::messages_only(seed)
        }
    }
}

/// SplitMix64 finalizer — the mixer behind every per-message chaos
/// decision, and behind the transport's choice of which payload bit a
/// corruption fault flips (a pure function of the frame's identity).
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded chaos layer: deterministic randomized message faults plus a
/// rank-death schedule.
///
/// Decisions are *stateless*: each message's fate is derived by mixing
/// the seed with `(src, dst, tag, seq, attempt)` through a SplitMix64
/// finalizer (the same mixer family `pgr-geom`'s xoshiro256++ RNG is
/// seeded through), so the schedule is independent of host thread
/// interleaving and every retransmit re-rolls.
#[derive(Debug, Clone)]
pub struct ChaosLayer {
    cfg: ChaosConfig,
}

impl ChaosLayer {
    pub fn new(cfg: ChaosConfig) -> Self {
        let budget = cfg.drop + cfg.reorder + cfg.duplicate + cfg.delay + cfg.corrupt;
        assert!(
            (0.0..=1.0).contains(&budget),
            "fault probabilities must sum to [0, 1], got {budget}"
        );
        ChaosLayer { cfg }
    }

    /// Uniform sample in [0, 1) for one message.
    fn unit(&self, ctx: &MsgCtx) -> f64 {
        let z = self
            .cfg
            .seed
            .wrapping_add((ctx.src as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((ctx.dst as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
            .wrapping_add((ctx.tag as u64).wrapping_mul(0x1656_67B1_9E37_79F9))
            .wrapping_add(ctx.seq.wrapping_mul(0x2545_F491_4F6C_DD1D))
            .wrapping_add(ctx.attempt as u64);
        (splitmix64(z) >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl FaultLayer for ChaosLayer {
    fn on_send(&self, ctx: &MsgCtx) -> FaultAction {
        let u = self.unit(ctx);
        let c = &self.cfg;
        // Consecutive slices of [0, 1), in this order; what is left over
        // is clean delivery.
        let mut edge = 0.0;
        for (p, action) in [
            (c.drop, FaultAction::Drop),
            (c.reorder, FaultAction::Reorder),
            (c.duplicate, FaultAction::Duplicate),
            (c.delay, FaultAction::Delay(c.delay_secs)),
            (c.corrupt, FaultAction::Corrupt),
        ] {
            edge += p;
            if u < edge {
                return action;
            }
        }
        FaultAction::Deliver
    }

    fn kill_at_boundary(&self, rank: usize) -> Option<u64> {
        self.cfg
            .kills
            .iter()
            .filter(|&&(r, _)| r == rank)
            .map(|&(_, b)| b)
            .min()
    }

    fn corrupt_checkpoint(&self, attempt: u32, phase_idx: usize) -> bool {
        self.cfg.ckpt_corrupt.contains(&(attempt, phase_idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> MsgCtx {
        MsgCtx {
            src: 1,
            dst: 0,
            tag: 7,
            bytes: 16,
            seq: 0,
            attempt: 0,
        }
    }

    /// A closure layer applying `action` to the messages matching
    /// `(src, dst, tag)` (`None` = any) and delivering the rest.
    fn matching(
        (src, dst, tag): (Option<usize>, Option<usize>, Option<u32>),
        action: FaultAction,
    ) -> impl FaultLayer {
        move |m: &MsgCtx| {
            let hit = src.is_none_or(|s| s == m.src)
                && dst.is_none_or(|d| d == m.dst)
                && tag.is_none_or(|t| t == m.tag);
            if hit {
                action
            } else {
                FaultAction::Deliver
            }
        }
    }

    const ANY: (Option<usize>, Option<usize>, Option<u32>) = (None, None, None);

    #[test]
    fn drop_matching_wildcards() {
        let c = ctx();
        let all = matching(ANY, FaultAction::Drop);
        assert_eq!(all.on_send(&c), FaultAction::Drop);
        let tag_only = matching((None, None, Some(8)), FaultAction::Drop);
        assert_eq!(tag_only.on_send(&c), FaultAction::Deliver);
        let edge = matching((Some(1), Some(0), Some(7)), FaultAction::Drop);
        assert_eq!(edge.on_send(&c), FaultAction::Drop);
    }

    #[test]
    fn reorder_and_duplicate_matching() {
        let c = ctx();
        assert_eq!(
            matching(ANY, FaultAction::Reorder).on_send(&c),
            FaultAction::Reorder
        );
        assert_eq!(
            matching(ANY, FaultAction::Duplicate).on_send(&c),
            FaultAction::Duplicate
        );
        let miss = matching((None, Some(5), None), FaultAction::Reorder);
        assert_eq!(miss.on_send(&c), FaultAction::Deliver);
    }

    #[test]
    fn closures_are_fault_layers() {
        let layer = |ctx: &MsgCtx| {
            if ctx.seq == 0 {
                FaultAction::Delay(0.5)
            } else {
                FaultAction::Deliver
            }
        };
        let mk = |seq| MsgCtx {
            src: 0,
            dst: 1,
            tag: 0,
            bytes: 0,
            seq,
            attempt: 0,
        };
        assert_eq!(layer.on_send(&mk(0)), FaultAction::Delay(0.5));
        assert_eq!(layer.on_send(&mk(1)), FaultAction::Deliver);
        assert_eq!(layer.kill_at_boundary(0), None, "default kills nobody");
    }

    #[test]
    fn chaos_is_deterministic_and_attempt_sensitive() {
        let layer = ChaosLayer::new(ChaosConfig {
            seed: 42,
            drop: 0.20,
            reorder: 0.20,
            duplicate: 0.20,
            delay: 0.20,
            delay_secs: 1.0,
            corrupt: 0.20,
            kills: vec![(2, 3), (2, 1), (0, 7)],
            ckpt_corrupt: Vec::new(),
        });
        let mk = |seq, attempt| MsgCtx {
            src: 3,
            dst: 1,
            tag: 9,
            bytes: 8,
            seq,
            attempt,
        };
        for seq in 0..64 {
            assert_eq!(
                layer.on_send(&mk(seq, 0)),
                layer.on_send(&mk(seq, 0)),
                "same message, same fate"
            );
        }
        // Different attempts of the same message re-roll: across many
        // seqs at least one message's fate changes with the attempt.
        assert!(
            (0..64).any(|s| layer.on_send(&mk(s, 0)) != layer.on_send(&mk(s, 1))),
            "retransmits must re-roll"
        );
        assert_eq!(layer.kill_at_boundary(2), Some(1), "earliest kill wins");
        assert_eq!(layer.kill_at_boundary(0), Some(7));
        assert_eq!(layer.kill_at_boundary(1), None);
    }

    #[test]
    fn chaos_probabilities_roughly_hold() {
        let layer = ChaosLayer::new(ChaosConfig {
            seed: 7,
            drop: 0.5,
            reorder: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            delay_secs: 0.0,
            corrupt: 0.0,
            kills: Vec::new(),
            ckpt_corrupt: Vec::new(),
        });
        let n = 4096;
        let drops = (0..n)
            .filter(|&s| {
                layer.on_send(&MsgCtx {
                    src: 0,
                    dst: 1,
                    tag: 0,
                    bytes: 0,
                    seq: s,
                    attempt: 0,
                }) == FaultAction::Drop
            })
            .count();
        let frac = drops as f64 / n as f64;
        assert!((0.4..0.6).contains(&frac), "drop fraction {frac}");
    }

    #[test]
    fn corrupt_matching_wildcards() {
        let c = ctx();
        assert_eq!(
            matching(ANY, FaultAction::Corrupt).on_send(&c),
            FaultAction::Corrupt
        );
        let miss = matching((Some(9), None, None), FaultAction::Corrupt);
        assert_eq!(miss.on_send(&c), FaultAction::Deliver);
        let edge = matching((Some(1), Some(0), Some(7)), FaultAction::Corrupt);
        assert_eq!(edge.on_send(&c), FaultAction::Corrupt);
    }

    #[test]
    fn chaos_corruption_is_seeded_and_roughly_holds() {
        let layer = ChaosLayer::new(ChaosConfig {
            corrupt: 0.5,
            drop: 0.0,
            reorder: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            ..ChaosConfig::messages_with_corruption(11)
        });
        let mk = |seq| MsgCtx {
            src: 0,
            dst: 1,
            tag: 0,
            bytes: 32,
            seq,
            attempt: 0,
        };
        let n = 4096u64;
        let hits = (0..n)
            .filter(|&s| layer.on_send(&mk(s)) == FaultAction::Corrupt)
            .count();
        let frac = hits as f64 / n as f64;
        assert!((0.4..0.6).contains(&frac), "corrupt fraction {frac}");
        for seq in 0..64 {
            assert_eq!(layer.on_send(&mk(seq)), layer.on_send(&mk(seq)));
        }
    }

    #[test]
    #[should_panic(expected = "fault probabilities must sum to [0, 1]")]
    fn corruption_counts_against_the_probability_budget() {
        ChaosLayer::new(ChaosConfig {
            corrupt: 0.95,
            ..ChaosConfig::messages_only(1)
        });
    }
}
