//! The frame layer: channels, the fault hook, the reliable-transport
//! windows and the blocking receive loop.
//!
//! A [`Transport`] moves [`Envelope`]s between physical ranks and knows
//! nothing about clocks, logical ranks or phases: it is handed the stamp
//! to put on a frame and hands back the matched frame. What it *counts*
//! goes into the metrics shard the caller passes; what a frame *costs*
//! is the facade's business (`Comm::post` / `Comm::accept`).

use crate::error::{CommError, PendingMsg, TransportSnapshot};
use crate::failure::FailureDetector;
use crate::fault::{
    splitmix64, FaultAction, FaultLayer, MsgCtx, FAULTS_CORRUPTED, FAULTS_DELAYED, FAULTS_DROPPED,
    FAULTS_DUPLICATED, FAULTS_REORDERED, SENDS_TO_EXITED,
};
use crate::reliable::{self, backoff_delay, Ingest, ReliabilityConfig, ReorderBuffer};
use crate::trace::{TraceEvent, TraceHub};
use crate::wire::crc32;
use pgr_obs::{MetricsShard, Phase};
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

/// How many pending-queue entries a [`CommError`] snapshot retains.
const ERR_PENDING_CAP: usize = 64;
/// How many recent trace events a [`CommError`] carries.
const ERR_TRACE_TAIL: usize = 16;
/// How many events per rank a watchdog all-ranks dump shows.
const DUMP_TAIL: usize = 12;
/// How often a blocked recv re-checks the failure detector.
const DETECTOR_POLL: Duration = Duration::from_millis(20);

/// Sequence number traced for a frame the fault layer dropped before it
/// reached the wire: it consumed no transport sequence number (a gap
/// would wedge the receiver's reorder window), and the sentinel marks it
/// unmatchable.
pub(super) const SEQ_NEVER_SENT: u64 = u64::MAX;

#[derive(Clone)]
pub(super) struct Envelope {
    pub(super) src: u32,
    pub(super) tag: u32,
    /// Per-(src → dst) sequence number (reliable-transport ordering).
    pub(super) seq: u64,
    /// Sender's clock at send time (after send overhead).
    pub(super) stamp: f64,
    /// The sender's open metric window at send time. Host-side only —
    /// not a wire byte, in no account. The receiver counts what the
    /// reliable transport did with the frame into this phase's window:
    /// its own open window at arrival depends on host scheduling, and
    /// would make two runs of one binary write different dumps.
    phase: Option<Phase>,
    /// The network duplicated this frame: the receiver ingests it twice.
    /// Both copies travel as one channel message, so the second is never
    /// left unread behind the receiver's last receive — whether a
    /// duplicate gets suppressed (and counted) must not depend on what
    /// the receiver happens to pull before it exits.
    duplicated: bool,
    /// CRC-32 the sender computed over the original payload; delivery
    /// verifies it, so in-transit corruption is detected instead of
    /// handed to the algorithm as valid data.
    crc: u32,
    /// `Some(n)` marks a modeled transfer of `n` bytes: `payload` is
    /// then only its length header.
    pub(super) modeled: Option<usize>,
    pub(super) payload: Box<[u8]>,
}

impl Envelope {
    /// The size every account sees: the payload's, or the modeled one.
    pub(super) fn bytes(&self) -> usize {
        self.modeled.unwrap_or(self.payload.len())
    }
}

/// What a frame carries, as handed to [`Transport::send`].
pub(super) enum Body {
    /// A real frame: these bytes travel and reach the receiver.
    Bytes(Vec<u8>),
    /// A modeled transfer of this many bytes. The fault hook, the
    /// sequence numbers, the receive windows and every account treat it
    /// as a frame of that size; the host moves (and checksums) only a
    /// fixed-size length header, so its cost does not depend on the
    /// size.
    Modeled(usize),
}

impl Body {
    pub(super) fn bytes(&self) -> usize {
        match self {
            Body::Bytes(payload) => payload.len(),
            Body::Modeled(bytes) => *bytes,
        }
    }
}

/// One rank's end of the simulated network, addressed by physical rank.
#[derive(Default)]
pub(super) struct Transport {
    rank: usize,
    /// Senders to every peer; `txs[self.rank]` is `None` — self-sends
    /// bypass the channel (directly into `pending`), so a rank never
    /// holds its own channel open. That is what lets a blocked `recv`
    /// detect a mismatched communication pattern (every peer exited ⇒
    /// channel disconnects ⇒ structured [`CommError`]) instead of
    /// hanging forever.
    txs: Vec<Option<Sender<Envelope>>>,
    rx: Option<Receiver<Envelope>>,
    /// Received-but-unmatched messages, per source rank.
    pending: Vec<VecDeque<Envelope>>,
    /// Optional fault-injection layer consulted on every send.
    fault: Option<Arc<dyn FaultLayer>>,
    /// Sends issued by this rank (feeds [`MsgCtx::seq`]).
    send_seq: u64,
    reliability: ReliabilityConfig,
    /// Next sequence number per destination.
    next_seq: Vec<u64>,
    /// At most one held-back frame per destination (reorder injection).
    holdback: Vec<Option<Envelope>>,
    /// Per-source receive windows (reliable transport).
    windows: Vec<ReorderBuffer<Envelope>>,
    /// Retransmit and corruption counters, kept in the shape the
    /// diagnostics report them (`reorder` is filled in at snapshot
    /// time, from `windows`).
    retry: TransportSnapshot,
    /// A CRC failure detected while ingesting a frame (reliability
    /// off). Held until the next receive call can surface it — frames
    /// arrive outside any receive (drains, self-delivery), where there
    /// is no caller to hand the error to.
    corrupt_stash: Option<CommError>,
    /// The shared liveness table, present only when the fault layer
    /// schedules a rank death. Blocked receives poll it; otherwise they
    /// block undisturbed (no timing jitter added to runs that cannot
    /// lose a rank).
    liveness: Option<Arc<FailureDetector>>,
}

impl Transport {
    /// Rank `rank` of `size` with nothing shared attached. That is
    /// already a complete solo transport: with no receiver a solo rank
    /// can only ever receive its own buffered self-sends, and a recv
    /// that finds none is reported as unsatisfiable instead of blocking
    /// on a channel no one can write to.
    pub(super) fn new(
        rank: usize,
        size: usize,
        fault: Option<Arc<dyn FaultLayer>>,
        reliability: ReliabilityConfig,
    ) -> Self {
        Transport {
            rank,
            fault,
            reliability,
            txs: (0..size).map(|_| None).collect(),
            pending: (0..size).map(|_| VecDeque::new()).collect(),
            next_seq: vec![0; size],
            holdback: (0..size).map(|_| None).collect(),
            windows: (0..size).map(|_| ReorderBuffer::new()).collect(),
            ..Transport::default()
        }
    }

    /// Attach the shared parts of a spawned world: the peers' senders
    /// (`None` at this rank's own index), this rank's receiver, and the
    /// liveness table when a rank can die.
    pub(super) fn connect(
        &mut self,
        txs: Vec<Option<Sender<Envelope>>>,
        rx: Receiver<Envelope>,
        liveness: Option<Arc<FailureDetector>>,
    ) {
        self.txs = txs;
        self.rx = Some(rx);
        self.liveness = liveness;
    }

    /// Rank exit: release any reorder-held frames (no peer may be left
    /// waiting on a frame parked in this rank's holdback), then drop the
    /// sender handles so blocked peers can detect a mismatched
    /// communication pattern instead of hanging forever.
    pub(super) fn close(&mut self, m: &mut MetricsShard) {
        self.flush_holdbacks(m);
        self.txs.clear();
        self.rx = None;
    }

    /// Discard everything buffered from or held for the `dead` ranks.
    pub(super) fn forget(&mut self, dead: &[usize]) {
        for &p in dead {
            self.pending[p].clear();
            self.holdback[p] = None;
        }
    }

    /// Put one frame stamped `stamp` on the wire to `dst`, through the
    /// fault hook. Returns the transport sequence number the frame
    /// carries ([`SEQ_NEVER_SENT`] when the hook dropped it for good).
    ///
    /// By the time the hook runs the sender has already paid the
    /// overhead and the stats already count the message (the NIC
    /// accepted it); the layer decides what the network does with it
    /// afterwards. With the reliable transport on, whatever the layer
    /// does is masked: the frame still goes out with its original
    /// stamp, and the protocol's effort is visible only in the metrics
    /// shard.
    pub(super) fn send(
        &mut self,
        dst: usize,
        tag: u32,
        mut stamp: f64,
        body: Body,
        m: &mut MetricsShard,
    ) -> u64 {
        // What the network ends up doing with the frame: the hook's
        // verdict that sticks — a masked or retried-away fault ends as
        // a plain delivery.
        let mut fate = FaultAction::Deliver;
        if let Some(fault) = &self.fault {
            let reliable_on = self.reliability.enabled;
            let mut ctx = MsgCtx {
                src: self.rank,
                dst,
                tag,
                bytes: body.bytes(),
                seq: self.send_seq,
                attempt: 0,
            };
            self.send_seq += 1;
            fate = loop {
                let action = fault.on_send(&ctx);
                match action {
                    FaultAction::Deliver => break action,
                    FaultAction::Delay(extra) => {
                        assert!(extra >= 0.0 && extra.is_finite(), "delay must be finite");
                        m.add(FAULTS_DELAYED, 1);
                        if reliable_on {
                            // Masked: the protocol's redundant copy wins
                            // the race, preserving original timing.
                            m.add(reliable::MASKED_DELAYS, 1);
                        } else {
                            stamp += extra;
                        }
                        break action;
                    }
                    FaultAction::Duplicate => {
                        m.add(FAULTS_DUPLICATED, 1);
                        break action;
                    }
                    FaultAction::Reorder => {
                        m.add(FAULTS_REORDERED, 1);
                        break action;
                    }
                    FaultAction::Drop => {
                        m.add(FAULTS_DROPPED, 1);
                        if !reliable_on {
                            return SEQ_NEVER_SENT;
                        }
                    }
                    FaultAction::Corrupt => {
                        m.add(FAULTS_CORRUPTED, 1);
                        self.retry.corrupt_seen += 1;
                        if !reliable_on {
                            // The flipped frame goes on the wire; the
                            // receiver's CRC check rejects it.
                            break action;
                        }
                        // The checksum mismatch is caught before the
                        // frame leaves the NIC — handled exactly like a
                        // drop, so a retransmit heals it and corruption
                        // schedules stay byte-invisible.
                        self.retry.corrupt_dropped += 1;
                        m.add(reliable::CORRUPT_DROPPED, 1);
                    }
                }
                // One lost transmission attempt under the reliable
                // transport — dropped, or flipped and caught by the
                // sender's own checksum.
                ctx.attempt += 1;
                if ctx.attempt >= self.reliability.max_attempts {
                    // The layer is adversarial (loses every attempt);
                    // force delivery rather than spin — unrecoverable
                    // loss is modeled by rank death, not infinite
                    // message loss.
                    self.retry.exhausted += 1;
                    m.add(reliable::RETRANSMIT_EXHAUSTED, 1);
                    break FaultAction::Deliver;
                }
                // Ack deadline passed: retransmit after exponential
                // backoff — the hook is consulted again with the bumped
                // attempt. The wait is NIC-level bookkeeping overlapping
                // the latency already charged for the message, so it
                // shows up in metrics, not on the virtual clock.
                let wait = backoff_delay(&self.reliability, ctx.attempt);
                self.retry.retransmits += 1;
                self.retry.last_backoff = wait;
                m.add(reliable::RETRANSMITS, 1);
                m.observe(reliable::BACKOFF_MICROS, (wait * 1e6) as u64);
            };
        }
        let seq = self.next_seq[dst];
        self.next_seq[dst] += 1;
        let (modeled, mut payload) = match body {
            Body::Bytes(payload) => (None, payload),
            Body::Modeled(bytes) => (Some(bytes), (bytes as u64).to_le_bytes().to_vec()),
        };
        // The checksum is always over the *original* payload: a wire
        // flip after it (below) is exactly what delivery detects.
        let mut crc = crc32(&payload);
        if fate == FaultAction::Corrupt {
            if payload.is_empty() {
                // Nothing to flip in an empty payload; corrupt the
                // checksum field itself instead.
                crc ^= 1;
            } else {
                // Deterministic bit choice: a pure function of the
                // frame's identity, so corruption schedules reproduce.
                let bit = splitmix64(
                    (self.rank as u64) << 48 ^ (dst as u64) << 32 ^ (tag as u64) << 16 ^ seq,
                ) as usize
                    % (payload.len() * 8);
                payload[bit / 8] ^= 1 << (bit % 8);
            }
        }
        let env = Envelope {
            src: self.rank as u32,
            tag,
            seq,
            stamp,
            phase: m.open_phase(),
            duplicated: fate == FaultAction::Duplicate,
            crc,
            modeled,
            payload: payload.into_boxed_slice(),
        };
        // At most one frame is ever held per destination: whatever was
        // held before goes out right behind this send, so the frame
        // that overtook it is the only one that does.
        let overtaken = if fate == FaultAction::Reorder {
            self.holdback[dst].replace(env)
        } else {
            self.transmit(dst, env, m);
            self.holdback[dst].take()
        };
        if let Some(prev) = overtaken {
            self.transmit(dst, prev, m);
        }
        seq
    }

    /// Hand one frame to the (lossless) simulated network.
    fn transmit(&mut self, dst: usize, env: Envelope, m: &mut MetricsShard) {
        if dst == self.rank {
            self.ingest(env, m);
            return;
        }
        let (tag, bytes) = (env.tag, env.bytes());
        let tx = self.txs[dst].as_ref().expect("peer sender");
        if tx.send(env).is_err() {
            // Without faults this is always a mismatched pattern — the
            // peer exited while a message meant for it was in flight.
            // Under chaos it can be benign: a peer only exits once it
            // has everything it needs, so a redundant copy (duplicate,
            // retransmit) can race its completion, and a send can race
            // a scheduled rank death before this rank's next
            // checkpoint. The frame has no consumer either way.
            if self.fault.is_some() {
                m.add(SENDS_TO_EXITED, 1);
                return;
            }
            let err = CommError::PeerGone {
                rank: self.rank,
                dst,
                tag,
                bytes,
            };
            panic!("{err}");
        }
    }

    /// Run one arriving frame through the CRC integrity check and the
    /// reliable receive window (when enabled) into the pending queues.
    /// A frame failing its checksum is discarded — the wrong payload is
    /// never delivered — and the failure is stashed for the next
    /// receive call to surface as [`CommError::Corrupt`].
    fn ingest(&mut self, mut env: Envelope, m: &mut MetricsShard) {
        if std::mem::take(&mut env.duplicated) {
            self.ingest(env.clone(), m);
        }
        let src = env.src as usize;
        let got = crc32(&env.payload);
        if got != env.crc {
            // Only reachable with reliability off: the reliable sender
            // intercepts corruption before transmitting. Keep the first
            // failure if several frames arrive corrupt.
            self.retry.corrupt_seen += 1;
            if self.corrupt_stash.is_none() {
                self.corrupt_stash = Some(CommError::Corrupt {
                    src,
                    dst: self.rank,
                    tag: env.tag,
                    expected: env.crc,
                    got,
                });
            }
            return;
        }
        if !self.reliability.enabled {
            self.pending[src].push_back(env);
            return;
        }
        let mut released = Vec::new();
        let sent_in = env.phase;
        match self.windows[src].ingest(env.seq, env, &mut released) {
            Ingest::Duplicate => {
                m.add_in(sent_in, reliable::DUPLICATES_DROPPED, 1);
            }
            Ingest::Buffered => {
                m.add_in(sent_in, reliable::REORDER_BUFFERED, 1);
                let depth = self.windows[src].depth() as u64;
                m.observe_in(sent_in, reliable::REORDER_DEPTH, depth);
            }
            Ingest::Delivered => {
                // One ack per frame, each in its own sender's phase: a
                // parked frame may be released by one sent a phase later.
                for e in &released {
                    m.add_in(e.phase, reliable::ACKS, 1);
                }
            }
        }
        self.pending[src].extend(released);
    }

    /// Release every held-back (reorder-injected) frame. Called before
    /// any blocking receive, at phase boundaries, and at rank exit, so
    /// a held frame can never deadlock the peer waiting on it. Only a
    /// fault layer ever holds a frame.
    pub(super) fn flush_holdbacks(&mut self, m: &mut MetricsShard) {
        if self.fault.is_none() {
            return;
        }
        for dst in 0..self.holdback.len() {
            if let Some(env) = self.holdback[dst].take() {
                self.transmit(dst, env, m);
            }
        }
    }

    /// One matching step over what has already arrived: a corrupt frame
    /// may have been detected outside any receive (self-delivery,
    /// drain) and is surfaced first — data loss outranks whatever else
    /// this call would have found — then the first buffered frame from
    /// `src` carrying `tag` is popped.
    fn take_matching(&mut self, src: usize, tag: u32) -> Result<Option<Envelope>, CommError> {
        if let Some(err) = self.corrupt_stash.take() {
            return Err(err);
        }
        let queue = &mut self.pending[src];
        Ok(queue
            .iter()
            .position(|e| e.tag == tag)
            .and_then(|pos| queue.remove(pos)))
    }

    /// Block until the next frame from `src` with `tag` (FIFO per
    /// `(src, tag)` pair) can be matched, reporting a receive that can
    /// never complete as a structured [`CommError`]. `trace` supplies
    /// the watchdog deadline and the event tails errors carry.
    pub(super) fn recv(
        &mut self,
        src: usize,
        tag: u32,
        m: &mut MetricsShard,
        trace: Option<&TraceHub>,
    ) -> Result<Envelope, CommError> {
        // A frame we hold back (reorder injection) may be the very one a
        // peer needs before it can send us ours: release them all before
        // any chance of blocking.
        self.flush_holdbacks(m);
        if let Some(env) = self.take_matching(src, tag)? {
            return Ok(env);
        }
        // A receive from this rank itself can only match a buffered
        // self-send (self-sends never travel the channel): nothing
        // buffered means nothing can ever arrive. This also covers every
        // recv on a solo communicator.
        if src == self.rank || self.rx.is_none() {
            return Err(CommError::Unsatisfiable {
                rank: self.rank,
                size: self.pending.len(),
                src,
                tag,
                pending: self.pending_snapshot(),
                recent: self.recent_events(trace),
            });
        }
        let watchdog = trace.and_then(|h| h.config.watchdog);
        let poll = self.liveness.is_some().then_some(DETECTOR_POLL);
        let mut waited = Duration::ZERO;
        loop {
            // A dead expected source can never satisfy this receive.
            // Drain anything already in flight (frames it sent before
            // dying) first, then report the death.
            if self.liveness.as_ref().is_some_and(|d| !d.is_alive(src)) {
                self.drain_rx(m);
                return match self.take_matching(src, tag)? {
                    Some(env) => Ok(env),
                    None => Err(self.rank_dead_error(src, tag)),
                };
            }
            // Wake for whichever comes first: the detector poll or what
            // is left of the watchdog's budget.
            let slice = [poll, watchdog.map(|w| w.saturating_sub(waited))]
                .into_iter()
                .flatten()
                .min();
            let rx = self.rx.as_ref().expect("communicator active");
            let arrived = match slice {
                None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                Some(slice) => rx.recv_timeout(slice),
            };
            let env = match arrived {
                Ok(env) => env,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::PeersDisconnected {
                        rank: self.rank,
                        src,
                        tag,
                        pending: self.pending_snapshot(),
                        recent: self.recent_events(trace),
                    })
                }
                Err(RecvTimeoutError::Timeout) => {
                    waited += slice.expect("only a bounded wait times out");
                    if watchdog.is_some_and(|w| waited >= w) {
                        return Err(CommError::Stalled {
                            rank: self.rank,
                            src,
                            tag,
                            waited,
                            pending: self.pending_snapshot(),
                            recent: self.recent_events(trace),
                            all_ranks: trace.map(|h| h.dump_all(DUMP_TAIL)),
                            transport: self.snapshot(),
                        });
                    }
                    continue;
                }
            };
            self.ingest(env, m);
            // Progress resets the watchdog (it guards against a silent
            // stall, not total elapsed time).
            waited = Duration::ZERO;
            if let Some(env) = self.take_matching(src, tag)? {
                return Ok(env);
            }
        }
    }

    /// Non-blocking: pull everything already delivered into the pending
    /// queues.
    fn drain_rx(&mut self, m: &mut MetricsShard) {
        while let Some(env) = self.rx.as_ref().and_then(|rx| rx.try_recv().ok()) {
            self.ingest(env, m);
        }
    }

    fn recent_events(&self, trace: Option<&TraceHub>) -> Vec<TraceEvent> {
        match trace {
            Some(hub) if hub.config.enabled => hub.tail(self.rank, ERR_TRACE_TAIL),
            _ => Vec::new(),
        }
    }

    /// Snapshot of the pending queues for error reporting.
    fn pending_snapshot(&self) -> Vec<PendingMsg> {
        self.pending
            .iter()
            .flat_map(|q| q.iter())
            .take(ERR_PENDING_CAP)
            .map(|e| PendingMsg {
                src: e.src as usize,
                tag: e.tag,
                bytes: e.bytes(),
            })
            .collect()
    }

    fn rank_dead_error(&self, dead: usize, tag: u32) -> CommError {
        let info = self
            .liveness
            .as_ref()
            .expect("detector present when a death is observed")
            .snapshot(dead);
        CommError::RankDead {
            rank: self.rank,
            dead,
            tag,
            last_heartbeat: info.last_heartbeat,
            phase: info.phase,
            boundary: info.boundary,
        }
    }

    /// Transport state for diagnostics; `None` when there is nothing to
    /// report (reliability off and no fault layer attached — with a
    /// layer attached the corruption counters are meaningful even
    /// without the reliable transport, and distinguish a
    /// corruption-induced stall from a drop-induced one).
    fn snapshot(&self) -> Option<Box<TransportSnapshot>> {
        if !self.reliability.enabled && self.fault.is_none() {
            return None;
        }
        Some(Box::new(TransportSnapshot {
            reorder: self
                .windows
                .iter()
                .enumerate()
                .filter(|(_, b)| b.depth() > 0)
                .map(|(s, b)| (s, b.depth(), b.expected()))
                .collect(),
            ..self.retry.clone()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgr_obs::MetricsConfig;
    use std::sync::mpsc::channel;

    const TAG: u32 = 5;

    /// Ranks 0 and 1 wired back to back — no threads, no `Comm`: each
    /// transport and its metric shard, rank 0 sending through `fault`.
    fn pair(
        fault: impl Fn(&MsgCtx) -> FaultAction + Send + Sync + 'static,
        reliability: ReliabilityConfig,
    ) -> [(Transport, MetricsShard); 2] {
        let fault: Arc<dyn FaultLayer> = Arc::new(fault);
        let (tx0, rx0) = channel();
        let (tx1, rx1) = channel();
        let mut a = Transport::new(0, 2, Some(fault.clone()), reliability);
        let mut b = Transport::new(1, 2, Some(fault), reliability);
        a.connect(vec![None, Some(tx1)], rx0, None);
        b.connect(vec![Some(tx0), None], rx1, None);
        let shard = || MetricsShard::new(MetricsConfig::on());
        [(a, shard()), (b, shard())]
    }

    fn payload_of(r: Result<Envelope, CommError>) -> Vec<u8> {
        r.expect("frame delivered").payload.into_vec()
    }

    #[test]
    fn duplicate_frames_are_suppressed_by_sequence_number() {
        let dup_first = |c: &MsgCtx| match c.seq {
            0 => FaultAction::Duplicate,
            _ => FaultAction::Deliver,
        };
        let [(mut a, mut ma), (mut b, mut mb)] = pair(dup_first, ReliabilityConfig::on());
        ma.open_window(Phase::Coarse);
        assert_eq!(a.send(1, TAG, 0.0, Body::Bytes(vec![1]), &mut ma), 0);
        assert_eq!(a.send(1, TAG, 0.0, Body::Bytes(vec![2]), &mut ma), 1);
        // Three frames arrive (seq 0 twice, then seq 1); the receiver
        // hands out two.
        mb.open_window(Phase::Connect);
        assert_eq!(payload_of(b.recv(0, TAG, &mut mb, None)), vec![1]);
        assert_eq!(payload_of(b.recv(0, TAG, &mut mb, None)), vec![2]);
        let seen = mb.snapshot(1);
        assert_eq!(seen.counter(reliable::DUPLICATES_DROPPED), Some(1));
        assert_eq!(seen.counter(reliable::ACKS), Some(2));
        // Counted in the window of the phase the frames were *sent* in:
        // which window the receiver has open when they arrive is host
        // scheduling, and must not show in the dump.
        let sent_in = seen.window("coarse").expect("the sender's phase");
        assert_eq!(sent_in.counter(reliable::DUPLICATES_DROPPED), Some(1));
        assert_eq!(sent_in.counter(reliable::ACKS), Some(2));
        let open = seen.window("connect").expect("the receiver's phase");
        assert!(open.counters.is_empty(), "{open:?}");
        assert_eq!(ma.snapshot(0).counter(FAULTS_DUPLICATED), Some(1));
        // Nothing else is buffered: once the sender is gone the next
        // receive reports the disconnect, not a second copy.
        a.close(&mut ma);
        let err = b.recv(0, TAG, &mut mb, None).err().expect("no third frame");
        assert!(
            matches!(err, CommError::PeersDisconnected { rank: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn reordered_frames_are_released_in_send_order() {
        let hold_first = |c: &MsgCtx| match c.seq {
            0 => FaultAction::Reorder,
            _ => FaultAction::Deliver,
        };
        // Raw: the second frame overtakes the held first one, visibly.
        let [(mut a, mut ma), (mut b, mut mb)] = pair(hold_first, ReliabilityConfig::off());
        a.send(1, TAG, 0.0, Body::Bytes(vec![1]), &mut ma);
        a.send(1, TAG, 0.0, Body::Bytes(vec![2]), &mut ma);
        assert_eq!(payload_of(b.recv(0, TAG, &mut mb, None)), vec![2]);
        assert_eq!(payload_of(b.recv(0, TAG, &mut mb, None)), vec![1]);

        // Reliable: same wire order, but the window parks the early
        // frame and releases both in sequence.
        let [(mut a, mut ma), (mut b, mut mb)] = pair(hold_first, ReliabilityConfig::on());
        ma.open_window(Phase::Steiner);
        a.send(1, TAG, 0.0, Body::Bytes(vec![1]), &mut ma);
        ma.open_window(Phase::Coarse);
        a.send(1, TAG, 0.0, Body::Bytes(vec![2]), &mut ma);
        assert_eq!(payload_of(b.recv(0, TAG, &mut mb, None)), vec![1]);
        assert_eq!(payload_of(b.recv(0, TAG, &mut mb, None)), vec![2]);
        let seen = mb.snapshot(1);
        assert_eq!(seen.counter(reliable::REORDER_BUFFERED), Some(1));
        // The early frame was parked — and is acked — in its own
        // sender's phase, though the late one's arrival released it.
        let (early, late) = (
            seen.window("coarse").unwrap(),
            seen.window("steiner").unwrap(),
        );
        assert_eq!(early.counter(reliable::REORDER_BUFFERED), Some(1));
        assert_eq!(early.counter(reliable::ACKS), Some(1));
        assert_eq!(late.counter(reliable::REORDER_BUFFERED), None);
        assert_eq!(late.counter(reliable::ACKS), Some(1));
        assert!(b.snapshot().expect("layer attached").reorder.is_empty());
    }

    #[test]
    fn held_frame_goes_out_at_close_even_with_nothing_to_overtake_it() {
        let [(mut a, mut ma), (mut b, mut mb)] =
            pair(|_| FaultAction::Reorder, ReliabilityConfig::off());
        a.send(1, TAG, 0.0, Body::Bytes(vec![7]), &mut ma);
        a.close(&mut ma);
        assert_eq!(payload_of(b.recv(0, TAG, &mut mb, None)), vec![7]);
    }

    #[test]
    fn flipped_frame_is_rejected_by_crc_never_delivered() {
        let [(mut a, mut ma), (mut b, mut mb)] =
            pair(|_| FaultAction::Corrupt, ReliabilityConfig::off());
        a.send(1, TAG, 0.0, Body::Bytes(vec![0xAB; 16]), &mut ma);
        match b.recv(0, TAG, &mut mb, None) {
            Err(CommError::Corrupt {
                src: 0,
                dst: 1,
                tag: TAG,
                expected,
                got,
            }) => assert_ne!(expected, got),
            Err(e) => panic!("expected Corrupt, got {e}"),
            Ok(_) => panic!("expected Corrupt, got a payload"),
        }
        assert_eq!(b.snapshot().expect("layer attached").corrupt_seen, 1);
        // An empty payload has no bit to flip: the checksum field is
        // corrupted instead, and still rejected.
        a.send(1, TAG, 0.0, Body::Bytes(Vec::new()), &mut ma);
        assert!(matches!(
            b.recv(0, TAG, &mut mb, None),
            Err(CommError::Corrupt { .. })
        ));
    }

    /// What the modeled-transfer tests ship: far more than the header
    /// that actually travels.
    const MODELED: usize = 1 << 20;

    #[test]
    fn modeled_frame_is_its_full_size_to_the_hook_and_a_header_on_the_wire() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let log = seen.clone();
        let hook = move |c: &MsgCtx| {
            log.lock().expect("hook log").push(c.bytes);
            FaultAction::Deliver
        };
        let [(mut a, mut ma), (mut b, mut mb)] = pair(hook, ReliabilityConfig::off());
        a.send(1, TAG, 0.0, Body::Modeled(MODELED), &mut ma);
        assert_eq!(*seen.lock().expect("hook log"), vec![MODELED]);
        // Unmatched in the pending queue it still reports its full size.
        b.drain_rx(&mut mb);
        let pending = b.pending_snapshot();
        assert_eq!((pending.len(), pending[0].bytes), (1, MODELED));
        let env = b.recv(0, TAG, &mut mb, None).expect("frame delivered");
        assert_eq!((env.bytes(), env.modeled), (MODELED, Some(MODELED)));
        assert_eq!(*env.payload, (MODELED as u64).to_le_bytes());
    }

    #[test]
    fn duplicate_modeled_frame_is_suppressed_by_sequence_number() {
        let dup_first = |c: &MsgCtx| match c.seq {
            0 => FaultAction::Duplicate,
            _ => FaultAction::Deliver,
        };
        let [(mut a, mut ma), (mut b, mut mb)] = pair(dup_first, ReliabilityConfig::on());
        a.send(1, TAG, 0.0, Body::Modeled(MODELED), &mut ma);
        a.send(1, TAG, 0.0, Body::Modeled(7), &mut ma);
        let sizes: Vec<usize> = (0..2)
            .map(|_| b.recv(0, TAG, &mut mb, None).expect("delivered").bytes())
            .collect();
        assert_eq!(sizes, vec![MODELED, 7]);
        assert_eq!(
            mb.snapshot(1).counter(reliable::DUPLICATES_DROPPED),
            Some(1)
        );
    }

    #[test]
    fn held_modeled_frame_goes_out_at_close() {
        let [(mut a, mut ma), (mut b, mut mb)] =
            pair(|_| FaultAction::Reorder, ReliabilityConfig::off());
        a.send(1, TAG, 0.0, Body::Modeled(MODELED), &mut ma);
        a.close(&mut ma);
        let env = b.recv(0, TAG, &mut mb, None).expect("released at close");
        assert_eq!(env.bytes(), MODELED);
    }

    #[test]
    fn flipped_modeled_frame_is_rejected_by_its_header_crc() {
        let [(mut a, mut ma), (mut b, mut mb)] =
            pair(|_| FaultAction::Corrupt, ReliabilityConfig::off());
        // Whatever the modeled size — zero included — the header has
        // bits to flip and the checksum covers them.
        for bytes in [MODELED, 0] {
            a.send(1, TAG, 0.0, Body::Modeled(bytes), &mut ma);
            match b.recv(0, TAG, &mut mb, None) {
                Err(CommError::Corrupt {
                    src: 0,
                    dst: 1,
                    tag: TAG,
                    expected,
                    got,
                }) => assert_ne!(expected, got),
                Err(e) => panic!("expected Corrupt, got {e}"),
                Ok(env) => panic!("expected Corrupt, got {} B delivered", env.bytes()),
            }
        }
        assert_eq!(b.snapshot().expect("layer attached").corrupt_seen, 2);
    }
}
