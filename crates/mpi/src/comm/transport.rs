//! The frame layer: channels, the fault hook, the reliable-transport
//! windows and the blocking receive loop.
//!
//! A [`Transport`] moves [`Envelope`]s between physical ranks and knows
//! nothing about clocks, logical ranks or phases: it is handed the stamp
//! to put on a frame and hands back the matched frame. What it *counts*
//! goes into the metrics shard the caller passes; what a frame *costs*
//! is the facade's business (`Comm::post` / `Comm::accept`).
//!
//! The ranks are threads of one process, so every frame carries the
//! sender's value itself ([`Value`]): nothing is encoded, copied into
//! bytes, checksummed or decoded, and every account bills the frame at
//! the size the value states. A frame the fault layer corrupts is
//! marked, and the receiver refuses it.

use crate::error::{CommError, PendingMsg};
use crate::fault::{
    FaultAction, FaultLayer, MsgCtx, FAULTS_CORRUPTED, FAULTS_DELAYED, FAULTS_DROPPED,
    FAULTS_DUPLICATED, FAULTS_REORDERED, SENDS_TO_EXITED,
};
use crate::reliable::{
    self, backoff_delay, Ingest, ReliabilityConfig, ReorderBuffer, MAX_ATTEMPTS,
};
use pgr_obs::{MetricsShard, Phase};
use std::any::Any;
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How many pending-queue entries a [`CommError`] snapshot retains.
const ERR_PENDING_CAP: usize = 64;
/// How long a receive polls its channel before it parks on it: a frame
/// that lands within it costs no thread park and wake. Real time, but
/// it decides only *when* the host sees a frame, never which frame a
/// receive matches, so no result, clock or count depends on it.
const POLL_WINDOW: Duration = Duration::from_micros(50);

/// Whether the receives of a world of `size` ranks poll before they
/// park: only when every rank can have a core to itself. An
/// oversubscribed world parks at once, so a polling receiver never
/// holds the core its sender is waiting for.
pub(super) fn polls(size: usize) -> bool {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    size <= *cores
}

/// Sub-phase timer ([`MetricsShard::start_timer`]) of the host time a
/// receive, or a wait for a peer's exit notice, spends polling or
/// parked, waiting for the next frame off its channel.
pub(super) const BLOCKED_TIMER: &str = "mpi.blocked";
/// Sub-phase timer of the part of [`BLOCKED_TIMER`] a receive spends
/// parked, once its poll window ran out (at once where the world does
/// not poll); its calls are the parks.
pub(super) const PARKED_TIMER: &str = "mpi.parked";

/// The tag of the exit notice a rank sends each peer when its closure
/// ends ([`Transport::close`]). No collective tag reaches it (they wrap
/// below), and a notice never enters a fault hook, a receive window, a
/// pending queue or any account.
const EXIT_TAG: u32 = u32::MAX;

/// How a rank's closure ended: what its exit notice tells each peer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum Exit {
    Returned,
    Panicked,
    /// Killed by the fault layer's schedule at a phase boundary.
    Killed(Death),
}

/// A killed rank's death record: its clock, the phase it was entering
/// and the boundary count, as it crossed the boundary it died at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Death {
    pub(super) clock: f64,
    pub(super) phase: Phase,
    pub(super) boundary: u64,
}

impl Exit {
    /// `src`'s notice: the exit itself is the frame's value.
    fn notice(self, src: usize) -> Envelope {
        Envelope {
            src: src as u32,
            tag: EXIT_TAG,
            seq: 0,
            stamp: 0.0,
            phase: None,
            duplicated: false,
            marked: false,
            value: Value::new(self, 0, false),
        }
    }
}

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
    /// The fault layer corrupted this frame in transit: the receiver
    /// refuses it, and its value is never delivered.
    marked: bool,
    /// The sender's value, billed at its `bytes`.
    pub(super) value: Value,
}

/// What a frame carries: the sender's value, shared, so a duplicated or
/// held frame is the same value again, and handed to the receiver as is.
#[derive(Clone)]
pub(super) struct Value {
    any: Arc<dyn Any + Send + Sync>,
    type_name: &'static str,
    /// The size every account sees.
    pub(super) bytes: usize,
    /// Billed at what the sender says it stands for, not at its own
    /// encoded length: part of what a receive matches.
    pub(super) charged: bool,
}

impl Value {
    pub(super) fn new<T: Any + Send + Sync>(value: T, bytes: usize, charged: bool) -> Self {
        Value {
            any: Arc::new(value),
            type_name: std::any::type_name::<T>(),
            bytes,
            charged,
        }
    }

    /// The value, moved out when this frame holds the last reference
    /// (a cloned copy while a duplicate of the frame is still around);
    /// `Err` with the type it holds when that is not `T`.
    pub(super) fn take<T: Any + Clone + Send + Sync>(self) -> Result<T, &'static str> {
        let type_name = self.type_name;
        let value = self.any.downcast::<T>().map_err(|_| type_name)?;
        Ok(Arc::try_unwrap(value).unwrap_or_else(|shared| T::clone(&shared)))
    }
}

/// One rank's end of the simulated network, addressed by physical rank.
#[derive(Default)]
pub(super) struct Transport {
    rank: usize,
    /// Senders to every peer; `txs[self.rank]` is `None` — self-sends
    /// bypass the channel (directly into `pending`), so a rank never
    /// holds its own channel open.
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
    /// At most one held-back frame per destination (reorder injection),
    /// boxed: a slot of every rank's table is a pointer until a fault
    /// layer holds a frame in it.
    holdback: Vec<Option<Box<Envelope>>>,
    /// Per-source receive windows (reliable transport; none while it is
    /// off).
    windows: Vec<ReorderBuffer<Envelope>>,
    /// A marked frame refused while ingesting it (reliability off). Held
    /// until the next receive call can surface it — frames arrive
    /// outside any receive (drains, self-delivery), where there is no
    /// caller to hand the error to.
    corrupt_stash: Option<CommError>,
    /// Each peer's exit notice, once it has arrived. Channels are FIFO
    /// per sender, so every frame a peer ever sent arrived before it.
    exits: Vec<Option<Exit>>,
    /// Whether a receive polls for [`POLL_WINDOW`] before it parks
    /// ([`polls`] of the world's size).
    polls: bool,
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
            windows: match reliability.enabled {
                true => (0..size).map(|_| ReorderBuffer::default()).collect(),
                false => Vec::new(),
            },
            exits: vec![None; size],
            polls: polls(size),
            ..Transport::default()
        }
    }

    /// Attach the shared parts of a spawned world: the peers' senders
    /// (`None` at this rank's own index) and this rank's receiver.
    pub(super) fn connect(&mut self, txs: Vec<Option<Sender<Envelope>>>, rx: Receiver<Envelope>) {
        self.txs = txs;
        self.rx = Some(rx);
    }

    /// Rank exit: release any reorder-held frames (no peer may be left
    /// waiting on a frame parked in this rank's holdback), drop the
    /// receiver, then send every peer one exit notice saying how the
    /// closure ended, past the fault hook. It lands behind every frame
    /// this rank sent, so a peer blocked on it learns that nothing more
    /// will come; by then nothing sent here has a consumer either.
    pub(super) fn close(&mut self, exit: Exit, m: &mut MetricsShard) {
        self.flush_holdbacks(m);
        self.rx = None;
        for tx in self.txs.drain(..).flatten() {
            let _ = tx.send(exit.notice(self.rank));
        }
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
        value: Value,
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
                bytes: value.bytes,
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
                        if !reliable_on {
                            // The marked frame goes on the wire; the
                            // receiver refuses it.
                            break action;
                        }
                        // The corruption is caught before the frame
                        // leaves the NIC — handled exactly like a drop,
                        // so a retransmit heals it and corruption
                        // schedules stay byte-invisible.
                        m.add(reliable::CORRUPT_DROPPED, 1);
                    }
                }
                // One lost transmission attempt under the reliable
                // transport — dropped, or corrupted and caught at the
                // sender.
                ctx.attempt += 1;
                if ctx.attempt >= MAX_ATTEMPTS {
                    // The layer is adversarial (loses every attempt);
                    // force delivery rather than spin — unrecoverable
                    // loss is modeled by rank death, not infinite
                    // message loss.
                    m.add(reliable::RETRANSMIT_EXHAUSTED, 1);
                    break FaultAction::Deliver;
                }
                // Ack deadline passed: retransmit after exponential
                // backoff — the hook is consulted again with the bumped
                // attempt. The wait is NIC-level bookkeeping overlapping
                // the latency already charged for the message, so it
                // shows up in metrics, not on the virtual clock.
                let wait = backoff_delay(ctx.attempt);
                m.add(reliable::RETRANSMITS, 1);
                m.observe(reliable::BACKOFF_MICROS, (wait * 1e6) as u64);
            };
        }
        let seq = self.next_seq[dst];
        self.next_seq[dst] += 1;
        let env = Envelope {
            src: self.rank as u32,
            tag,
            seq,
            stamp,
            phase: m.open_phase(),
            duplicated: fate == FaultAction::Duplicate,
            marked: fate == FaultAction::Corrupt,
            value,
        };
        // At most one frame is ever held per destination: whatever was
        // held before goes out right behind this send, so the frame
        // that overtook it is the only one that does.
        let overtaken = if fate == FaultAction::Reorder {
            self.holdback[dst].replace(Box::new(env))
        } else {
            self.transmit(dst, env, m);
            self.holdback[dst].take()
        };
        if let Some(prev) = overtaken {
            self.transmit(dst, *prev, m);
        }
        seq
    }

    /// Hand one frame to the (lossless) simulated network.
    fn transmit(&mut self, dst: usize, env: Envelope, m: &mut MetricsShard) {
        if dst == self.rank {
            self.ingest(env, m);
            return;
        }
        let (tag, bytes) = (env.tag, env.value.bytes);
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

    /// Run one arriving frame through the corruption mark and the
    /// reliable receive window (when enabled) into the pending queues.
    /// A marked frame is discarded — its value is never delivered — and
    /// the failure is stashed for the next receive call to surface as
    /// [`CommError::Corrupt`].
    fn ingest(&mut self, mut env: Envelope, m: &mut MetricsShard) {
        if env.tag == EXIT_TAG {
            self.exits[env.src as usize] = env.value.take().ok();
            return;
        }
        if std::mem::take(&mut env.duplicated) {
            self.ingest(env.clone(), m);
        }
        let src = env.src as usize;
        if env.marked {
            // Only reachable with reliability off: the reliable sender
            // intercepts corruption before transmitting. Keep the first
            // failure if several frames arrive corrupt.
            if self.corrupt_stash.is_none() {
                self.corrupt_stash = Some(CommError::Corrupt {
                    src,
                    dst: self.rank,
                    tag: env.tag,
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
                self.transmit(dst, *env, m);
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
    /// never complete as a structured [`CommError`]: nothing matching is
    /// buffered and `src`'s exit notice is in ([`CommError::RankDead`]
    /// when it was killed), a peer's notice says it panicked, or the
    /// receive waits on this rank itself. The errors carry no trace
    /// tail; the facade attaches its own.
    pub(super) fn recv(
        &mut self,
        src: usize,
        tag: u32,
        m: &mut MetricsShard,
    ) -> Result<Envelope, CommError> {
        // A frame we hold back (reorder injection) may be the very one a
        // peer needs before it can send us ours: release them all before
        // any chance of blocking.
        self.flush_holdbacks(m);
        loop {
            if let Some(env) = self.take_matching(src, tag)? {
                return Ok(env);
            }
            // A receive from this rank itself can only match a buffered
            // self-send (self-sends never travel the channel): nothing
            // buffered means nothing can ever arrive. This also covers
            // every recv on a solo communicator.
            if src == self.rank || self.rx.is_none() {
                return Err(CommError::Unsatisfiable {
                    rank: self.rank,
                    size: self.pending.len(),
                    src,
                    tag,
                    pending: self.pending_snapshot(),
                    recent: Vec::new(),
                });
            }
            if let Some(Exit::Killed(death)) = self.exits[src] {
                return Err(self.rank_dead(src, tag, death));
            }
            if self.exits[src].is_some() || self.exits.contains(&Some(Exit::Panicked)) {
                return Err(self.disconnected(src, tag));
            }
            let timer = m.start_timer();
            let frame = self.next_frame(m);
            m.stop_timer(BLOCKED_TIMER, timer);
            let Some(env) = frame else {
                return Err(self.disconnected(src, tag));
            };
            self.ingest(env, m);
        }
    }

    /// Block until `peer`'s exit notice is in, ingesting whatever
    /// arrives before it: past this, every frame `peer` sent, and
    /// everything it did before its closure ended, has happened.
    pub(super) fn await_exit(&mut self, peer: usize, m: &mut MetricsShard) {
        while self.exits[peer].is_none() {
            let timer = m.start_timer();
            let frame = self.next_frame(m);
            m.stop_timer(BLOCKED_TIMER, timer);
            let Some(env) = frame else { return };
            self.ingest(env, m);
        }
    }

    /// The next frame off the channel: polled for [`POLL_WINDOW`] when
    /// this transport polls (else looked for once), then waited for
    /// parked, the park timed as [`PARKED_TIMER`]. `None` once every
    /// peer has dropped its sender.
    fn next_frame(&self, m: &mut MetricsShard) -> Option<Envelope> {
        let rx = self.rx.as_ref()?;
        let start = self.polls.then(Instant::now);
        loop {
            match rx.try_recv() {
                Ok(env) => return Some(env),
                Err(TryRecvError::Empty) if start.is_some_and(|s| s.elapsed() < POLL_WINDOW) => {
                    std::hint::spin_loop()
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return None,
            }
        }
        let timer = m.start_timer();
        let frame = rx.recv().ok();
        m.stop_timer(PARKED_TIMER, timer);
        frame
    }

    fn disconnected(&self, src: usize, tag: u32) -> CommError {
        CommError::PeersDisconnected {
            rank: self.rank,
            src,
            tag,
            pending: self.pending_snapshot(),
            recent: Vec::new(),
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
                bytes: e.value.bytes,
            })
            .collect()
    }

    fn rank_dead(&self, dead: usize, tag: u32, death: Death) -> CommError {
        CommError::RankDead {
            rank: self.rank,
            dead,
            tag,
            died_at: death.clock,
            phase: death.phase.name(),
            boundary: death.boundary,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgr_obs::MetricsConfig;
    use std::sync::mpsc::channel;

    const TAG: u32 = 5;

    /// Ranks `0..N` wired to one another — no threads, no `Comm`: each
    /// transport and its metric shard, every rank sending through `fault`.
    fn world<const N: usize>(
        fault: impl Fn(&MsgCtx) -> FaultAction + Send + Sync + 'static,
        reliability: ReliabilityConfig,
    ) -> [(Transport, MetricsShard); N] {
        let fault: Arc<dyn FaultLayer> = Arc::new(fault);
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..N).map(|_| channel()).unzip();
        let ranks: Vec<_> = rxs
            .into_iter()
            .enumerate()
            .map(|(rank, rx)| {
                let mut t = Transport::new(rank, N, Some(fault.clone()), reliability);
                let peers = (0..N).map(|i| (i != rank).then(|| txs[i].clone()));
                t.connect(peers.collect(), rx);
                (t, MetricsShard::new(MetricsConfig::on()))
            })
            .collect();
        ranks.try_into().ok().expect("N ranks")
    }

    /// What a killed rank's notice tells its peers.
    const DEATH: Death = Death {
        clock: 2.5,
        phase: Phase::Coarse,
        boundary: 3,
    };

    /// What [`Comm::send_bytes`](super::Comm::send_bytes) hands the
    /// transport: the bytes, charged at their length.
    fn raw(payload: Vec<u8>) -> Value {
        let bytes = payload.len();
        Value::new(payload, bytes, true)
    }

    fn payload_of(r: Result<Envelope, CommError>) -> Vec<u8> {
        let value = r.expect("frame delivered").value;
        value.take().expect("raw bytes")
    }

    #[test]
    fn duplicate_frames_are_suppressed_by_sequence_number() {
        let dup_first = |c: &MsgCtx| match c.seq {
            0 => FaultAction::Duplicate,
            _ => FaultAction::Deliver,
        };
        let [(mut a, mut ma), (mut b, mut mb)] = world(dup_first, ReliabilityConfig::on());
        ma.open_window(Phase::Coarse);
        assert_eq!(a.send(1, TAG, 0.0, raw(vec![1]), &mut ma), 0);
        assert_eq!(a.send(1, TAG, 0.0, raw(vec![2]), &mut ma), 1);
        // Three frames arrive (seq 0 twice, then seq 1); the receiver
        // hands out two.
        mb.open_window(Phase::Connect);
        assert_eq!(payload_of(b.recv(0, TAG, &mut mb)), vec![1]);
        assert_eq!(payload_of(b.recv(0, TAG, &mut mb)), vec![2]);
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
        a.close(Exit::Returned, &mut ma);
        let err = b.recv(0, TAG, &mut mb).err().expect("no third frame");
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
        let [(mut a, mut ma), (mut b, mut mb)] = world(hold_first, ReliabilityConfig::off());
        a.send(1, TAG, 0.0, raw(vec![1]), &mut ma);
        a.send(1, TAG, 0.0, raw(vec![2]), &mut ma);
        assert_eq!(payload_of(b.recv(0, TAG, &mut mb)), vec![2]);
        assert_eq!(payload_of(b.recv(0, TAG, &mut mb)), vec![1]);

        // Reliable: same wire order, but the window parks the early
        // frame and releases both in sequence.
        let [(mut a, mut ma), (mut b, mut mb)] = world(hold_first, ReliabilityConfig::on());
        ma.open_window(Phase::Steiner);
        a.send(1, TAG, 0.0, raw(vec![1]), &mut ma);
        ma.open_window(Phase::Coarse);
        a.send(1, TAG, 0.0, raw(vec![2]), &mut ma);
        assert_eq!(payload_of(b.recv(0, TAG, &mut mb)), vec![1]);
        assert_eq!(payload_of(b.recv(0, TAG, &mut mb)), vec![2]);
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
        assert_eq!(b.windows[0].depth(), 0, "nothing left parked");
    }

    #[test]
    fn panic_notice_ends_a_blocked_receive_on_a_live_source() {
        let [(mut a, mut ma), (mut b, mut mb), (mut c, mut mc)] =
            world(|_| FaultAction::Deliver, ReliabilityConfig::on());
        a.send(1, TAG, 0.0, raw(vec![1]), &mut ma);
        c.close(Exit::Panicked, &mut mc);
        // What arrived before the notice is still delivered.
        assert_eq!(payload_of(b.recv(0, TAG, &mut mb)), vec![1]);
        // Rank 0 is still open, but rank 2 unwound: the world can never
        // complete.
        let err = b.recv(0, TAG, &mut mb).err().expect("rank 2 unwound");
        assert!(
            matches!(
                err,
                CommError::PeersDisconnected {
                    rank: 1,
                    src: 0,
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(
            mb.snapshot(1).counter(reliable::ACKS),
            Some(1),
            "a notice is never acked"
        );
        drop(a);
    }

    #[test]
    fn held_frame_goes_out_at_close_even_with_nothing_to_overtake_it() {
        let [(mut a, mut ma), (mut b, mut mb)] =
            world(|_| FaultAction::Reorder, ReliabilityConfig::off());
        a.send(1, TAG, 0.0, raw(vec![7]), &mut ma);
        a.close(Exit::Returned, &mut ma);
        assert_eq!(payload_of(b.recv(0, TAG, &mut mb)), vec![7]);
    }

    /// Each receive-ending case met by a receive that parks at once and
    /// by one that polls first (whatever the host's cores): both must
    /// end alike.
    const POLLING: [bool; 2] = [false, true];

    #[test]
    fn a_world_larger_than_the_host_never_polls() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(polls(1) && polls(cores));
        assert!(!polls(cores + 1) && !polls(8 * cores));
        assert!(!Transport::new(0, cores + 1, None, ReliabilityConfig::off()).polls);
        assert!(Transport::new(0, cores, None, ReliabilityConfig::off()).polls);
    }

    #[test]
    fn a_frame_arriving_after_the_poll_window_is_still_delivered() {
        for polling in POLLING {
            let [(mut a, mut ma), (mut b, mb)] =
                world(|_| FaultAction::Deliver, ReliabilityConfig::on());
            b.polls = polling;
            let sender = std::thread::spawn(move || {
                std::thread::sleep(POLL_WINDOW * 40);
                a.send(1, TAG, 0.0, raw(vec![9]), &mut ma);
                a // the channel stays open until the receive is done
            });
            let mut mb = mb.timed(true);
            mb.open_window(Phase::Coarse);
            assert_eq!(payload_of(b.recv(0, TAG, &mut mb)), vec![9]);
            drop(sender.join().expect("sender"));
            // The park, if the frame came late enough for one (real
            // time decides), is a part of the blocked time.
            let timers = mb.timers();
            let timer = |name: &str| timers.iter().find(|t| t.1 == name).map(|t| t.2);
            let blocked = timer(BLOCKED_TIMER).expect("the receive blocked");
            let parked = timer(PARKED_TIMER).unwrap_or_default();
            assert!(parked.calls <= blocked.calls && parked.ns <= blocked.ns);
        }
    }

    #[test]
    fn panic_notice_caught_while_polling_is_peers_disconnected() {
        for polling in POLLING {
            let [(mut a, mut ma), (mut b, mut mb)] =
                world(|_| FaultAction::Deliver, ReliabilityConfig::on());
            b.polls = polling;
            a.close(Exit::Panicked, &mut ma);
            let err = b.recv(0, TAG, &mut mb).err().expect("rank 0 unwound");
            assert!(
                matches!(
                    err,
                    CommError::PeersDisconnected {
                        rank: 1,
                        src: 0,
                        ..
                    }
                ),
                "polling {polling}: {err}"
            );
        }
    }

    #[test]
    fn corrupt_frame_caught_while_polling_is_corrupt() {
        for polling in POLLING {
            let [(mut a, mut ma), (mut b, mut mb)] =
                world(|_| FaultAction::Corrupt, ReliabilityConfig::off());
            b.polls = polling;
            a.send(1, TAG, 0.0, raw(vec![0xAB; 16]), &mut ma);
            let err = b.recv(0, TAG, &mut mb).err().expect("never delivered");
            assert!(
                matches!(
                    err,
                    CommError::Corrupt {
                        src: 0,
                        dst: 1,
                        tag: TAG,
                        ..
                    }
                ),
                "polling {polling}: {err}"
            );
        }
    }

    #[test]
    fn source_killed_during_a_polling_receive_is_rank_dead() {
        for polling in POLLING {
            let [(mut a, mut ma), (mut b, mut mb)] =
                world(|_| FaultAction::Deliver, ReliabilityConfig::off());
            b.polls = polling;
            a.close(Exit::Killed(DEATH), &mut ma);
            let err = b.recv(0, TAG, &mut mb).err().expect("source died");
            assert!(
                matches!(
                    err,
                    CommError::RankDead {
                        rank: 1,
                        dead: 0,
                        tag: TAG,
                        died_at: 2.5,
                        phase: "coarse",
                        boundary: 3,
                    }
                ),
                "polling {polling}: {err}"
            );
        }
    }

    #[test]
    fn frames_a_killed_rank_sent_are_delivered_before_rank_dead() {
        // The second frame is held back; the victim's close releases it
        // ahead of the notice.
        let hold_second = |c: &MsgCtx| match c.seq {
            1 => FaultAction::Reorder,
            _ => FaultAction::Deliver,
        };
        for reliability in [ReliabilityConfig::off(), ReliabilityConfig::on()] {
            let [(mut a, mut ma), (mut b, mut mb)] = world(hold_second, reliability);
            a.send(1, TAG, 0.0, raw(vec![1]), &mut ma);
            a.send(1, TAG, 0.0, raw(vec![2]), &mut ma);
            a.close(Exit::Killed(DEATH), &mut ma);
            assert_eq!(payload_of(b.recv(0, TAG, &mut mb)), vec![1]);
            assert_eq!(payload_of(b.recv(0, TAG, &mut mb)), vec![2]);
            let err = b.recv(0, TAG, &mut mb).err().expect("nothing more");
            assert!(
                matches!(err, CommError::RankDead { boundary: 3, .. }),
                "{err}"
            );
        }
    }

    #[test]
    fn awaiting_an_exit_buffers_what_came_before_it() {
        let [(mut a, mut ma), (mut b, mut mb)] =
            world(|_| FaultAction::Deliver, ReliabilityConfig::on());
        a.send(1, TAG, 0.0, raw(vec![4]), &mut ma);
        a.close(Exit::Killed(DEATH), &mut ma);
        b.await_exit(0, &mut mb);
        assert_eq!(b.exits[0], Some(Exit::Killed(DEATH)));
        assert_eq!(payload_of(b.recv(0, TAG, &mut mb)), vec![4]);
    }

    #[test]
    fn a_park_awaiting_an_exit_is_part_of_the_blocked_time() {
        for polling in POLLING {
            let [(mut a, mut ma), (mut b, mb)] =
                world(|_| FaultAction::Deliver, ReliabilityConfig::on());
            b.polls = polling;
            // The notice comes well past the poll window, so the wait
            // parks (real time decides; it almost always does).
            let peer = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                a.close(Exit::Returned, &mut ma);
            });
            let mut mb = mb.timed(true);
            mb.open_window(Phase::Coarse);
            b.await_exit(0, &mut mb);
            peer.join().expect("peer");
            assert_eq!(b.exits[0], Some(Exit::Returned));
            let timers = mb.timers();
            let timer = |name: &str| timers.iter().find(|t| t.1 == name).map(|t| t.2);
            let blocked = timer(BLOCKED_TIMER).expect("the wait blocked");
            let parked = timer(PARKED_TIMER).unwrap_or_default();
            assert!(parked.calls <= blocked.calls && parked.ns <= blocked.ns);
        }
    }

    /// What the modeled-transfer tests ship: far more than the value
    /// that actually travels.
    const MODELED: usize = 1 << 20;

    /// What [`Comm::send_modeled`](super::Comm::send_modeled) hands the
    /// transport: nothing, charged at `bytes`.
    fn modeled(bytes: usize) -> Value {
        Value::new((), bytes, true)
    }

    #[test]
    fn modeled_frame_is_its_full_size_to_the_hook_and_a_header_on_the_wire() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let log = seen.clone();
        let hook = move |c: &MsgCtx| {
            log.lock().expect("hook log").push(c.bytes);
            FaultAction::Deliver
        };
        let [(mut a, mut ma), (mut b, mut mb)] = world(hook, ReliabilityConfig::off());
        a.send(1, TAG, 0.0, modeled(MODELED), &mut ma);
        assert_eq!(*seen.lock().expect("hook log"), vec![MODELED]);
        // Unmatched in the pending queue it still reports its full size.
        let env = b.rx.as_ref().expect("connected").recv().expect("sent");
        b.ingest(env, &mut mb);
        let pending = b.pending_snapshot();
        assert_eq!((pending.len(), pending[0].bytes), (1, MODELED));
        let value = b.recv(0, TAG, &mut mb).expect("frame delivered").value;
        assert_eq!((value.bytes, value.charged), (MODELED, true));
        assert_eq!(value.take::<()>(), Ok(()), "nothing but the size travels");
    }

    fn typed(bytes: usize, value: Vec<u32>, charged: bool) -> Value {
        Value::new(value, bytes, charged)
    }

    #[test]
    fn typed_frame_bills_its_size_and_hands_the_value_over() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let log = seen.clone();
        let hook = move |c: &MsgCtx| {
            log.lock().expect("hook log").push(c.bytes);
            FaultAction::Deliver
        };
        let [(mut a, mut ma), (mut b, mut mb)] = world(hook, ReliabilityConfig::off());
        for (bytes, charged) in [(16, false), (MODELED, true)] {
            a.send(1, TAG, 0.0, typed(bytes, vec![1, 2, 3], charged), &mut ma);
            let value = b.recv(0, TAG, &mut mb).expect("frame delivered").value;
            assert_eq!((value.bytes, value.charged), (bytes, charged));
            assert_eq!(value.take::<Vec<u32>>(), Ok(vec![1, 2, 3]));
        }
        assert_eq!(*seen.lock().expect("hook log"), vec![16, MODELED]);
        // The receiver names the type it found when it asked for another.
        a.send(1, TAG, 0.0, typed(16, vec![4], false), &mut ma);
        let env = b.recv(0, TAG, &mut mb).expect("frame delivered");
        let found = env.value.take::<Vec<u64>>();
        assert_eq!(found, Err(std::any::type_name::<Vec<u32>>()));
    }

    /// A frame corrupted on its first attempt, whatever it carries: with
    /// reliability off the marked frame alone is refused and the next one
    /// is delivered; with it on the sender drops the corrupted attempt
    /// and the value arrives once.
    fn refused_or_resent(case: &str, value: impl Fn() -> Value) {
        let first_attempt = |c: &MsgCtx| match (c.seq, c.attempt) {
            (0, 0) => FaultAction::Corrupt,
            _ => FaultAction::Deliver,
        };
        let arrived = |got: Value| {
            let sent = value();
            let (got, sent) = (
                (got.bytes, got.charged, got.type_name),
                (sent.bytes, sent.charged, sent.type_name),
            );
            assert_eq!(got, sent, "{case}");
        };
        let [(mut a, mut ma), (mut b, mut mb)] = world(first_attempt, ReliabilityConfig::off());
        a.send(1, TAG, 0.0, value(), &mut ma);
        a.send(1, TAG, 0.0, value(), &mut ma);
        match b.recv(0, TAG, &mut mb) {
            Err(CommError::Corrupt {
                src: 0,
                dst: 1,
                tag: TAG,
            }) => {}
            Err(e) => panic!("{case}: expected Corrupt, got {e}"),
            Ok(_) => panic!("{case}: expected Corrupt, got the value"),
        }
        let next = b
            .recv(0, TAG, &mut mb)
            .expect("the next frame is delivered");
        arrived(next.value);
        assert_eq!(ma.snapshot(0).counter(FAULTS_CORRUPTED), Some(1), "{case}");

        let [(mut a, mut ma), (mut b, mut mb)] = world(first_attempt, ReliabilityConfig::on());
        a.send(1, TAG, 0.0, value(), &mut ma);
        a.close(Exit::Returned, &mut ma);
        let resent = b
            .recv(0, TAG, &mut mb)
            .expect("the retransmit is delivered");
        arrived(resent.value);
        let err = b.recv(0, TAG, &mut mb).err().expect("it arrives once");
        assert!(
            matches!(err, CommError::PeersDisconnected { .. }),
            "{case}: {err}"
        );
        let sent = ma.snapshot(0);
        assert_eq!(sent.counter(reliable::CORRUPT_DROPPED), Some(1), "{case}");
    }

    /// `send_bytes`' frames: an empty payload is marked and refused too.
    #[test]
    fn flipped_frame_is_rejected_by_crc_never_delivered() {
        refused_or_resent("16 B", || raw(vec![0xAB; 16]));
        refused_or_resent("empty", || raw(Vec::new()));
    }

    /// `send`'s frames, billed at their size or charged.
    #[test]
    fn marked_typed_frame_is_rejected_by_its_checksum_never_delivered() {
        refused_or_resent("billed", || typed(16, vec![1, 2, 3], false));
        refused_or_resent("charged", || typed(MODELED, vec![7], true));
    }

    /// `send_modeled`'s frames, whatever the modeled size, zero included.
    #[test]
    fn flipped_modeled_frame_is_rejected_by_its_header_crc() {
        refused_or_resent("modeled", || modeled(MODELED));
        refused_or_resent("zero", || modeled(0));
    }

    #[test]
    fn duplicated_typed_frame_hands_each_copy_the_value() {
        let [(mut a, mut ma), (mut b, mut mb)] =
            world(|_| FaultAction::Duplicate, ReliabilityConfig::off());
        a.send(1, TAG, 0.0, typed(16, vec![5, 6], false), &mut ma);
        for _ in 0..2 {
            let env = b.recv(0, TAG, &mut mb).expect("both copies arrive");
            assert_eq!(env.value.take::<Vec<u32>>(), Ok(vec![5, 6]));
        }
    }

    #[test]
    fn duplicate_modeled_frame_is_suppressed_by_sequence_number() {
        let dup_first = |c: &MsgCtx| match c.seq {
            0 => FaultAction::Duplicate,
            _ => FaultAction::Deliver,
        };
        let [(mut a, mut ma), (mut b, mut mb)] = world(dup_first, ReliabilityConfig::on());
        a.send(1, TAG, 0.0, modeled(MODELED), &mut ma);
        a.send(1, TAG, 0.0, modeled(7), &mut ma);
        let sizes: Vec<usize> = (0..2)
            .map(|_| b.recv(0, TAG, &mut mb).expect("delivered").value.bytes)
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
            world(|_| FaultAction::Reorder, ReliabilityConfig::off());
        a.send(1, TAG, 0.0, modeled(MODELED), &mut ma);
        a.close(Exit::Returned, &mut ma);
        let env = b.recv(0, TAG, &mut mb).expect("released at close");
        assert_eq!(env.value.bytes, MODELED);
    }
}
