//! The communicator: SPMD ranks, point-to-point messages, collectives,
//! and per-rank virtual clocks.
//!
//! [`run`] spawns one OS thread per rank and hands each a [`Comm`]. Ranks
//! exchange byte messages over unbounded std mpsc channels (eager,
//! non-blocking sends — no rendezvous deadlocks), matched by `(source,
//! tag)` with FIFO order per pair, which mirrors MPI's matching rules for
//! a single communicator.
//!
//! Virtual time: the sender stamps its clock into the envelope; the
//! receiver advances to `max(local + recv_overhead, stamp + latency +
//! bytes × sec_per_byte)`. Computation is charged explicitly through
//! [`Comm::compute`]. The final per-rank clocks (and the makespan, their
//! maximum) are deterministic regardless of how the host schedules the
//! threads.
//!
//! Failure behavior: a receive that can never complete (every peer
//! exited, a self-recv with nothing buffered, or a watchdog-detected
//! stall) produces a structured [`CommError`] naming the blocked rank,
//! the expected `(src, tag)`, and the pending-queue contents — via
//! [`Comm::try_recv_bytes`]/[`Comm::try_recv`], or as the panic message
//! of the infallible wrappers. With [`TraceConfig`] enabled (see
//! [`run_instrumented`]), errors also carry the rank's recent event trace.
//!
//! Reliability and rank death: with
//! [`ReliabilityConfig::enabled`](crate::reliable::ReliabilityConfig)
//! every frame carries a sequence number and the receiver restores
//! per-source order, suppresses duplicates, and retransmits drops (see
//! [`crate::reliable`]) — injected message faults become invisible to
//! callers. A fault layer's kill schedule takes effect at phase
//! boundaries ([`Comm::phase_enter`]): the victim sees
//! [`PhaseControl::SelfKilled`], survivors see
//! [`PhaseControl::PeersDied`], shrink the world with
//! [`Comm::remove_dead`], and continue on dense *logical* ranks. A
//! receive blocked on a dead peer reports
//! [`CommError::RankDead`] with the victim's last heartbeat.

use crate::budget::{BudgetBreach, BudgetKind, ResourceBudget};
use crate::checkpoint::CheckpointStore;
use crate::error::{CommError, PendingMsg, TransportSnapshot};
use crate::failure::FailureDetector;
use crate::fault::{
    FaultAction, FaultLayer, MsgCtx, FAULTS_CORRUPTED, FAULTS_DELAYED, FAULTS_DROPPED,
    FAULTS_DUPLICATED, FAULTS_REORDERED,
};
use crate::machine::{ClockMode, MachineModel};
use crate::reliable::{self, backoff_delay, Ingest, ReliabilityConfig, ReorderBuffer};
use crate::trace::{self, RankTrace, TraceConfig, TraceEvent, TraceEventKind, TraceHub};
use crate::wire::{crc32, Wire};
use pgr_obs::{budget_names, recovery_names, MetricsConfig, MetricsShard, Phase, RankMetrics};
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tags at or above this value are reserved for collectives.
pub const COLLECTIVE_TAG_BASE: u32 = 0x8000_0000;

/// Metric counting microseconds receives sat blocked past their own
/// overhead — the recv-side wait the causal profiler attributes to the
/// sender. Recorded inside [`Comm::try_recv_bytes`]'s charge, so it
/// lands in the open phase window and per-phase wait seconds fall out
/// of the ordinary metrics dump.
pub const RECV_WAIT_MICROS: &str = "mpi.recv_wait_micros";

/// SplitMix64 finalizer — the mixer the chaos layer's per-message
/// decisions use; here it picks which payload bit a corruption fault
/// flips, keeping the flip a pure function of the frame's identity.
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How many pending-queue entries a [`CommError`] snapshot retains.
const ERR_PENDING_CAP: usize = 64;
/// How many recent trace events a [`CommError`] carries.
const ERR_TRACE_TAIL: usize = 16;
/// How many events per rank a watchdog all-ranks dump shows.
const DUMP_TAIL: usize = 12;
/// How often a blocked recv re-checks the failure detector.
const DETECTOR_POLL: Duration = Duration::from_millis(20);

struct Envelope {
    src: u32,
    tag: u32,
    /// Per-(src → dst) sequence number (reliable-transport ordering).
    seq: u64,
    /// Sender's clock at send time (after send overhead).
    stamp: f64,
    /// CRC-32 the sender computed over the original payload; delivery
    /// verifies it, so in-transit corruption is detected instead of
    /// handed to the algorithm as valid data.
    crc: u32,
    payload: Box<[u8]>,
}

/// Per-rank execution statistics, returned by [`run`].
#[derive(Debug, Clone, PartialEq)]
pub struct RankStats {
    pub rank: usize,
    /// Final virtual clock in seconds.
    pub time: f64,
    /// Abstract operations charged via [`Comm::compute`].
    pub ops: u64,
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    /// Bytes sent to each destination rank (`bytes_to[dst]`), the rank's
    /// row of the communication matrix.
    pub bytes_to: Vec<u64>,
    /// High-water mark of modeled memory (bytes).
    pub peak_mem: u64,
    /// Named phase durations in virtual seconds, in execution order
    /// (from [`Comm::phase_enter`] / [`Comm::phase_mark`]; the last phase
    /// ends at the final clock).
    pub phases: Vec<(&'static str, f64)>,
    /// Host-time measurements — `Some` only under [`ClockMode::Wall`].
    /// Everything else in the record stays the deterministic virtual
    /// account, so a wall-clock run changes reported seconds and nothing
    /// else.
    pub wall: Option<WallStats>,
}

/// Real host-time measurements of one rank ([`ClockMode::Wall`] only):
/// seconds elapsed from the run's shared epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct WallStats {
    /// Wall seconds from the epoch to this rank's finish.
    pub time: f64,
    /// Wall duration of each entry of [`RankStats::phases`], same order.
    pub phases: Vec<f64>,
}

/// Result of a parallel run: one result and one stat record per rank.
#[derive(Debug)]
pub struct RunReport<R> {
    pub results: Vec<R>,
    pub stats: Vec<RankStats>,
    pub machine: MachineModel,
}

impl<R> RunReport<R> {
    /// Simulated wall-clock of the run: the slowest rank's final clock.
    pub fn makespan(&self) -> f64 {
        self.stats.iter().map(|s| s.time).fold(0.0, f64::max)
    }

    /// Real host makespan: the slowest rank's wall seconds from the
    /// shared epoch. `None` unless the run used [`ClockMode::Wall`].
    pub fn wall_makespan(&self) -> Option<f64> {
        self.stats
            .iter()
            .map(|s| s.wall.as_ref().map(|w| w.time))
            .collect::<Option<Vec<f64>>>()
            .map(|ts| ts.into_iter().fold(0.0, f64::max))
    }

    pub fn total_bytes_sent(&self) -> u64 {
        self.stats.iter().map(|s| s.bytes_sent).sum()
    }

    pub fn total_msgs_sent(&self) -> u64 {
        self.stats.iter().map(|s| s.msgs_sent).sum()
    }

    pub fn max_peak_mem(&self) -> u64 {
        self.stats.iter().map(|s| s.peak_mem).max().unwrap_or(0)
    }

    /// Whether every rank's modeled working set fit the machine's node
    /// memory (Table 5's Paragon feasibility check).
    pub fn fits_memory(&self) -> bool {
        self.machine.fits_in_node(self.max_peak_mem())
    }

    /// The communication matrix: `matrix[src][dst]` bytes sent.
    pub fn comm_matrix(&self) -> Vec<Vec<u64>> {
        self.stats.iter().map(|s| s.bytes_to.clone()).collect()
    }
}

/// A rank's handle to the communicator.
pub struct Comm {
    rank: usize,
    size: usize,
    machine: MachineModel,
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
    clock: f64,
    /// Which clock is authoritative for reporting. The virtual clock
    /// advances in both modes (it is free and deterministic); `Wall`
    /// additionally measures host time against `wall_epoch`.
    clock_mode: ClockMode,
    /// Shared run epoch for wall measurements (one `Instant` taken
    /// before any rank spawns, so per-rank wall times are makespan-
    /// compatible).
    wall_epoch: Instant,
    /// Wall timestamp of each `phase_marks` entry (`Wall` mode only).
    wall_marks: Vec<f64>,
    ops: u64,
    msgs_sent: u64,
    bytes_sent: u64,
    bytes_to: Vec<u64>,
    cur_mem: u64,
    peak_mem: u64,
    coll_seq: u32,
    phase_marks: Vec<(&'static str, f64)>,
    /// Shared trace sink; `None` on the untraced (allocation-free) path.
    trace: Option<Arc<TraceHub>>,
    /// This rank's metric shard — owned outright (uncontended), records
    /// nothing and allocates nothing when disabled.
    metrics: MetricsShard,
    /// Optional fault-injection layer consulted on every send.
    fault: Option<Arc<dyn FaultLayer>>,
    /// Sends issued by this rank (feeds [`MsgCtx::seq`]).
    send_seq: u64,
    /// Logical → physical rank map; identity until ranks die. All
    /// public rank/size arithmetic is logical; channels, stats, pending
    /// queues, and traces stay physical.
    world: Vec<usize>,
    /// This rank's logical id (its index in `world`).
    lrank: usize,
    /// Phase boundaries crossed so far — never reset, so each entry of
    /// a kill schedule fires exactly once.
    boundary: u64,
    reliability: ReliabilityConfig,
    /// Next sequence number per destination (physical rank).
    rel_next_seq: Vec<u64>,
    /// At most one held-back frame per destination (reorder injection).
    rel_holdback: Vec<Option<Envelope>>,
    /// Per-source receive windows (reliable transport).
    rel_rx: Vec<ReorderBuffer<Envelope>>,
    rel_retry: RetryState,
    /// A CRC failure detected while ingesting a frame (reliability
    /// off). Held until the next receive call can surface it — frames
    /// arrive outside any receive (drains, self-delivery), where there
    /// is no caller to hand the error to.
    corrupt_stash: Option<CommError>,
    /// Shared liveness table; present whenever a fault layer is
    /// attached.
    failure: Option<Arc<FailureDetector>>,
    /// Whether the fault layer schedules any rank death. Blocked
    /// receives only poll the failure detector when it does; otherwise
    /// they block undisturbed (no timing jitter added to runs that
    /// cannot lose a rank).
    kills_scheduled: bool,
    /// Shared phase-boundary checkpoint store; present only when the
    /// run can lose a rank (or the caller supplied one), so fault-free
    /// runs never pay for snapshots.
    checkpoints: Option<Arc<CheckpointStore>>,
    /// Which attempt of the run this world is: 0 until the first rank
    /// death, bumped by every [`Comm::remove_dead`]. Keys the
    /// checkpoint store.
    run_attempt: u32,
    /// Highest phase boundary at which *this rank* committed a portable
    /// snapshot during the current attempt. Deliberately local: the
    /// recovery commit protocol must base each rank's vote on
    /// deterministic own-rank knowledge (free-running peer threads make
    /// reads of the shared store racy) and agree via a collective.
    portable_boundary: Option<usize>,
    /// The run's resource budget. Default unlimited: every check
    /// short-circuits on one branch and no state changes.
    budget: ResourceBudget,
    /// Active-clock reading when the current phase began (virtual
    /// seconds in [`ClockMode::Virtual`], host seconds in
    /// [`ClockMode::Wall`]) — the baseline for `max_phase_seconds`.
    budget_phase_start: f64,
    /// Latched hard breach. Polls and boundary checks only ever *set*
    /// this; acting on it is the engine's job, through an agreement
    /// collective at the next phase boundary, so every rank aborts the
    /// same way at the same point.
    budget_breach: Option<BudgetBreach>,
    /// Whether the *current* phase has shed optional work (reset at
    /// each boundary): once set, further time polls in the phase are
    /// tolerated instead of re-shedding or escalating.
    budget_shed: bool,
    /// Whether *any* phase of this run shed optional work — what stamps
    /// the result `budget_degraded`.
    budget_shed_any: bool,
}

/// This rank's retransmit bookkeeping, surfaced in
/// [`TransportSnapshot`] diagnostics.
#[derive(Debug, Default)]
struct RetryState {
    retransmits: u64,
    last_backoff: f64,
    exhausted: u64,
    /// Corrupt frames this rank saw: send-side interceptions (reliable
    /// transport on) plus receive-side CRC rejections (off).
    corrupt_seen: u64,
    /// Corrupt frames healed by retransmission.
    corrupt_dropped: u64,
}

/// Outcome of a phase boundary ([`Comm::phase_enter`]) under a fault
/// layer's kill schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhaseControl {
    /// Everyone scheduled to be here still is.
    Continue,
    /// These peers (physical rank ids) died at this boundary. The
    /// caller should [`Comm::remove_dead`] them, redistribute their
    /// work, and continue with the survivors.
    PeersDied(Vec<usize>),
    /// This rank itself is scheduled dead: unwind quietly without
    /// touching the communicator again.
    SelfKilled,
}

/// Full instrumentation bundle for a run: event tracing, metric
/// collection, and an optional fault-injection layer. The default
/// ([`InstrumentConfig::off`]) costs nothing on any hot path.
#[derive(Clone, Default)]
pub struct InstrumentConfig {
    pub trace: TraceConfig,
    pub metrics: MetricsConfig,
    /// Message fault model (test-only by convention; see
    /// [`crate::fault`]).
    pub fault: Option<Arc<dyn FaultLayer>>,
    /// Reliable-transport switches (default off — injected faults stay
    /// visible; see [`crate::reliable`]).
    pub reliability: ReliabilityConfig,
    /// Clock strategy (default [`ClockMode::Virtual`]). Under `Wall`
    /// every rank's stats additionally carry host-time measurements from
    /// one shared epoch.
    pub clock: ClockMode,
    /// Phase-boundary checkpoint store. `None` (the default) creates
    /// one automatically when the fault layer schedules a kill;
    /// supplying a store keeps a handle on it across the run (tests,
    /// cross-run inspection).
    pub checkpoints: Option<Arc<CheckpointStore>>,
}

impl std::fmt::Debug for InstrumentConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstrumentConfig")
            .field("trace", &self.trace)
            .field("metrics", &self.metrics)
            .field("fault", &self.fault.as_ref().map(|_| "<layer>"))
            .field("reliability", &self.reliability)
            .field("clock", &self.clock)
            .field("checkpoints", &self.checkpoints.as_ref().map(|_| "<store>"))
            .finish()
    }
}

impl InstrumentConfig {
    /// No tracing, no metrics, no faults.
    pub fn off() -> Self {
        InstrumentConfig::default()
    }

    /// Tracing and metrics both on, no faults — what `--trace-out` runs
    /// use.
    pub fn full() -> Self {
        InstrumentConfig {
            trace: TraceConfig::on(),
            metrics: MetricsConfig::on(),
            ..InstrumentConfig::default()
        }
    }

    /// Metrics only (no event ring, no watchdog).
    pub fn metered() -> Self {
        InstrumentConfig {
            metrics: MetricsConfig::on(),
            ..InstrumentConfig::default()
        }
    }
}

impl Comm {
    /// A single-rank communicator without any threads — for serial runs
    /// that still charge virtual time (the baseline of every speedup).
    pub fn solo(machine: MachineModel) -> Self {
        Comm::solo_with(machine, MetricsConfig::off(), ClockMode::default())
    }

    /// [`Comm::solo`] with metric collection and the [`ClockMode`]
    /// configured: under [`ClockMode::Wall`] the epoch starts here and
    /// [`Comm::stats`] reports host seconds alongside the virtual
    /// account.
    pub fn solo_with(machine: MachineModel, metrics: MetricsConfig, clock: ClockMode) -> Self {
        let instr = InstrumentConfig {
            metrics,
            clock,
            ..InstrumentConfig::off()
        };
        Comm::unconnected(0, 1, machine, &instr, Instant::now())
    }

    /// The one place a `Comm` is built: rank `rank` of `size` with the
    /// per-rank parts of `instr` applied and nothing shared attached —
    /// no channels, trace hub, failure detector or checkpoint store.
    /// That is already a complete solo communicator: with no receiver a
    /// solo rank can only ever receive its own buffered self-sends, and
    /// a recv that finds none is reported as unsatisfiable instead of
    /// blocking on a channel no one can write to. [`run_instrumented`]
    /// attaches the shared parts.
    fn unconnected(
        rank: usize,
        size: usize,
        machine: MachineModel,
        instr: &InstrumentConfig,
        wall_epoch: Instant,
    ) -> Self {
        Comm {
            rank,
            size,
            machine,
            txs: (0..size).map(|_| None).collect(),
            rx: None,
            pending: (0..size).map(|_| VecDeque::new()).collect(),
            clock: 0.0,
            clock_mode: instr.clock,
            wall_epoch,
            wall_marks: Vec::new(),
            ops: 0,
            msgs_sent: 0,
            bytes_sent: 0,
            bytes_to: vec![0; size],
            cur_mem: 0,
            peak_mem: 0,
            coll_seq: 0,
            phase_marks: Vec::new(),
            trace: None,
            metrics: MetricsShard::new(instr.metrics),
            fault: instr.fault.clone(),
            send_seq: 0,
            world: (0..size).collect(),
            lrank: rank,
            boundary: 0,
            reliability: instr.reliability,
            rel_next_seq: vec![0; size],
            rel_holdback: (0..size).map(|_| None).collect(),
            rel_rx: (0..size).map(|_| ReorderBuffer::new()).collect(),
            rel_retry: RetryState::default(),
            corrupt_stash: None,
            failure: None,
            kills_scheduled: false,
            checkpoints: None,
            run_attempt: 0,
            portable_boundary: None,
            budget: ResourceBudget::unlimited(),
            budget_phase_start: 0.0,
            budget_breach: None,
            budget_shed: false,
            budget_shed_any: false,
        }
    }

    /// This rank's logical id: dense in `0..size()`, renumbered when
    /// ranks die. Equal to the physical rank until then.
    // Deliberately not `self.rank`: the physical id is an internal
    // address; the public contract is the logical world.
    #[allow(clippy::misnamed_getters)]
    pub fn rank(&self) -> usize {
        self.lrank
    }

    /// Live world size (shrinks when ranks die).
    pub fn size(&self) -> usize {
        self.world.len()
    }

    /// This rank's immutable physical id (thread index; what traces,
    /// stats, and error diagnostics report).
    pub fn physical_rank(&self) -> usize {
        self.rank
    }

    /// The live logical → physical rank map.
    pub fn world(&self) -> &[usize] {
        &self.world
    }

    /// Current virtual time in seconds (advances identically in both
    /// clock modes; never consulted by routing decisions).
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// The run's clock strategy.
    pub fn clock_mode(&self) -> ClockMode {
        self.clock_mode
    }

    /// Real host seconds since the run's shared epoch. Meaningful under
    /// [`ClockMode::Wall`]; in virtual mode it still ticks but nothing
    /// reports it.
    pub fn wall_now(&self) -> f64 {
        self.wall_epoch.elapsed().as_secs_f64()
    }

    // ----- tracing -----

    fn tracing(&self) -> bool {
        self.trace.as_ref().is_some_and(|h| h.config.enabled)
    }

    fn record(&mut self, kind: TraceEventKind, t0: f64, t1: f64) {
        let evicted = match &self.trace {
            Some(hub) if hub.config.enabled => hub.record(self.rank, TraceEvent { kind, t0, t1 }),
            _ => false,
        };
        if evicted {
            // Surfaced as a counter so exporters and the profiler can
            // tell a truncated stream from a complete one; incremented
            // here (not at export) so it lands in the phase window that
            // overflowed the ring.
            self.metrics.add(trace::TRACE_DROPPED, 1);
        }
    }

    /// Record an instantaneous annotation on this rank's trace (no-op
    /// when tracing is off; does not affect virtual time or stats).
    pub fn trace_mark(&mut self, name: &'static str) {
        self.record(TraceEventKind::Mark { name }, self.clock, self.clock);
    }

    fn recent_events(&self) -> Vec<TraceEvent> {
        match &self.trace {
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
                bytes: e.payload.len(),
            })
            .collect()
    }

    // ----- metrics -----

    /// Whether this rank's metric shard records anything. Callers with
    /// per-item recording loops should gate on this to skip the loop
    /// entirely when metrics are off.
    pub fn metrics_enabled(&self) -> bool {
        self.metrics.enabled()
    }

    /// Add `delta` to the counter `name` (no-op when metrics are off).
    pub fn metric_add(&mut self, name: &'static str, delta: u64) {
        self.metrics.add(name, delta);
    }

    /// Set the gauge `name` (no-op when metrics are off).
    pub fn metric_gauge(&mut self, name: &'static str, v: f64) {
        self.metrics.gauge(name, v);
    }

    /// Record one histogram observation (no-op when metrics are off).
    pub fn metric_observe(&mut self, name: &'static str, v: u64) {
        self.metrics.observe(name, v);
    }

    /// Snapshot this rank's metrics (sorted, detached from the shard).
    pub fn metrics_snapshot(&self) -> RankMetrics {
        self.metrics.snapshot(self.rank)
    }

    /// Rotate the shard's phase-scoped metric window to `phase`:
    /// subsequent records land in that window as well as the run totals,
    /// until the next rotation or [`Comm::metric_window_close`]. No-op
    /// (one branch, zero allocation) when metrics are off; never touches
    /// the virtual clock.
    pub fn metric_window_open(&mut self, phase: Phase) {
        self.metrics.open_window(phase);
    }

    /// Close the open metric window; records go to the totals only.
    pub fn metric_window_close(&mut self) {
        self.metrics.close_window();
    }

    // ----- accounting -----

    /// Charge `ops` abstract operations of computation.
    pub fn compute(&mut self, ops: u64) {
        let t0 = self.clock;
        self.ops += ops;
        self.clock += self.machine.compute_time(ops);
        if self.tracing() {
            self.record(TraceEventKind::Compute { ops }, t0, self.clock);
        }
    }

    /// Register `bytes` of modeled allocation (for the per-node memory
    /// gate). Pair with [`Comm::release_alloc`].
    pub fn charge_alloc(&mut self, bytes: u64) {
        self.cur_mem += bytes;
        self.peak_mem = self.peak_mem.max(self.cur_mem);
    }

    pub fn release_alloc(&mut self, bytes: u64) {
        self.cur_mem = self.cur_mem.saturating_sub(bytes);
    }

    pub fn peak_mem(&self) -> u64 {
        self.peak_mem
    }

    /// Mark the start of registry [`Phase`] `phase` at the current
    /// virtual time *without* evaluating anything: the metric shard's
    /// per-phase window is rotated to `phase` and the trace/stats mark is
    /// stamped, but neither the kill schedule nor the budget is
    /// consulted. This is how the degraded-serial fallback enters its
    /// passes — the schedule that forced the degradation must not be
    /// able to kill the fallback too. Phase durations (this mark to the
    /// next, the last to the final clock) are reported in
    /// [`RankStats::phases`].
    pub fn phase_mark(&mut self, phase: Phase) {
        self.metrics.open_window(phase);
        let name = phase.name();
        self.phase_marks.push((name, self.clock));
        if self.clock_mode == ClockMode::Wall {
            self.wall_marks.push(self.wall_now());
        }
        self.record(TraceEventKind::Phase { name }, self.clock, self.clock);
    }

    /// Enter a registry [`Phase`]: the one entry point the routing
    /// engine drives phase boundaries through. [`Comm::phase_mark`] plus
    /// the failure protocol — heartbeat this rank, flush reorder
    /// holdbacks, evaluate the fault layer's kill schedule at this
    /// boundary — and, on `Continue`, the armed budget's boundary check.
    /// The window is rotated *before* the schedule is evaluated, so if a
    /// kill fires here the recovery accounting that follows the abort
    /// lands in the window of the phase whose boundary failed, keeping
    /// per-phase windows an exact partition of the run totals.
    ///
    /// Kills only ever take effect here, and every rank evaluates the
    /// shared schedule against its own SPMD-lockstep boundary counter,
    /// so all survivors agree on the post-death world deterministically
    /// — no racy detector reads decide membership. The detector exists
    /// for diagnostics: a recv blocked on the victim reports
    /// [`CommError::RankDead`] with the victim's last heartbeat.
    pub fn phase_enter(&mut self, phase: Phase) -> PhaseControl {
        self.phase_mark(phase);
        if self.fault.is_some() {
            self.flush_holdbacks();
        }
        self.boundary += 1;
        if let (Some(fault), Some(det)) = (self.fault.clone(), self.failure.clone()) {
            let boundary = self.boundary;
            let killed = |p| fault.kill_at_boundary(p).is_some_and(|b| b < boundary);
            det.heartbeat(self.rank, self.clock, phase.name(), boundary);
            if killed(self.rank) {
                det.mark_dead(self.rank, phase.name(), boundary);
                return PhaseControl::SelfKilled;
            }
            // Survivors learn of deaths from the schedule alone — they
            // must NOT write the detector: only the victim marks itself
            // dead, *after* flushing its sends at its own boundary, so a
            // receiver that observes "dead" knows every frame the victim
            // ever sent is already in flight (a fast survivor crossing
            // this boundary first must keep receiving from a victim still
            // finishing the previous phase).
            let (me, world) = (self.rank, &self.world);
            let dead: Vec<usize> = world
                .iter()
                .copied()
                .filter(|&p| p != me && killed(p))
                .collect();
            if !dead.is_empty() {
                return PhaseControl::PeersDied(dead);
            }
        }
        if self.budget.is_limited() {
            self.budget_boundary_check();
        }
        PhaseControl::Continue
    }

    // ----- resource budgets -----

    /// Arm (or replace) the run's [`ResourceBudget`] and reset all
    /// budget state, with the current instant as the phase baseline.
    pub fn set_budget(&mut self, budget: ResourceBudget) {
        self.budget = budget;
        self.budget_phase_start = self.active_now();
        self.budget_breach = None;
        self.budget_shed = false;
        self.budget_shed_any = false;
    }

    /// Drop every limit and clear any latched breach — used before a
    /// degraded-serial fallback, which must not inherit the breach that
    /// triggered it.
    pub fn clear_budget(&mut self) {
        self.budget = ResourceBudget::unlimited();
        self.budget_breach = None;
        self.budget_shed = false;
    }

    /// Whether any budget limit is armed.
    pub fn budget_limited(&self) -> bool {
        self.budget.is_limited()
    }

    /// The latched hard breach, if any. Latching is local; the engine
    /// agrees on it collectively before acting.
    pub fn budget_breach(&self) -> Option<BudgetBreach> {
        self.budget_breach
    }

    /// Whether any phase of this run shed optional work under time
    /// pressure (the `budget_degraded` stamp).
    pub fn budget_shed_any(&self) -> bool {
        self.budget_shed_any
    }

    /// Seconds on the *active* clock: the virtual account in
    /// [`ClockMode::Virtual`] (bit-deterministic), host seconds in
    /// [`ClockMode::Wall`] (best-effort).
    fn active_now(&self) -> f64 {
        match self.clock_mode {
            ClockMode::Virtual => self.clock,
            ClockMode::Wall => self.wall_now(),
        }
    }

    /// Latch a hard breach — the first one of a run wins — and count it.
    fn latch_breach(&mut self, kind: BudgetKind, limit: f64, observed: f64) {
        if self.budget_breach.is_none() {
            self.budget_breach = Some(BudgetBreach {
                kind,
                limit,
                observed,
            });
            self.metrics.add(budget_names::BREACHES, 1);
        }
    }

    /// Phase-boundary budget check (from [`Comm::phase_enter`]): close
    /// the books on the phase just ended and start the next one's
    /// account. An overrun of a phase that *shed* is tolerated — the
    /// shed already was the enforcement — otherwise it latches a hard
    /// breach for the engine's next agreement round.
    fn budget_boundary_check(&mut self) {
        let now = self.active_now();
        if let Some(limit) = self.budget.max_phase_seconds {
            let elapsed = now - self.budget_phase_start;
            if elapsed > limit && !self.budget_shed {
                self.latch_breach(BudgetKind::PhaseSeconds, limit, elapsed);
            }
        }
        if let Some(limit) = self.budget.max_rank_bytes {
            if self.cur_mem > limit {
                self.latch_breach(BudgetKind::RankBytes, limit as f64, self.cur_mem as f64);
            }
        }
        self.budget_phase_start = now;
        self.budget_shed = false;
    }

    /// Mid-phase cooperative poll for *mandatory* work (Steiner, eval,
    /// connect chunk loops): latches a hard breach when the phase has
    /// overrun its time limit or the rank its byte cap, and reports
    /// whether one is latched. The caller should stop issuing further
    /// local work but MUST still join every collective its peers commit
    /// to — walking away mid-pattern deadlocks the world. The engine
    /// converts the latch into a structured abort at the next phase
    /// boundary.
    pub fn budget_poll_abort(&mut self) -> bool {
        if !self.budget.is_limited() {
            return false;
        }
        if self.budget_breach.is_some() {
            return true;
        }
        if let Some(limit) = self.budget.max_phase_seconds {
            let elapsed = self.active_now() - self.budget_phase_start;
            if elapsed > limit {
                self.latch_breach(BudgetKind::PhaseSeconds, limit, elapsed);
                return true;
            }
        }
        if let Some(limit) = self.budget.max_rank_bytes {
            if self.cur_mem > limit {
                self.latch_breach(BudgetKind::RankBytes, limit as f64, self.cur_mem as f64);
                return true;
            }
        }
        false
    }

    /// Mid-phase cooperative poll for *optional* refinement work (the
    /// coarse improvement sweeps, the switchable passes): a time overrun
    /// here is not an error — the phase **sheds** its remaining
    /// iterations and the run completes `budget_degraded`. A byte-cap
    /// overrun still latches a hard breach (shedding refinement cannot
    /// return memory). Returns true when the caller should shed.
    pub fn budget_poll_shed(&mut self) -> bool {
        if !self.budget.is_limited() {
            return false;
        }
        if self.budget_breach.is_some() || self.budget_shed {
            return true;
        }
        if let Some(limit) = self.budget.max_rank_bytes {
            if self.cur_mem > limit {
                self.latch_breach(BudgetKind::RankBytes, limit as f64, self.cur_mem as f64);
                return true;
            }
        }
        if let Some(limit) = self.budget.max_phase_seconds {
            let elapsed = self.active_now() - self.budget_phase_start;
            if elapsed > limit {
                self.budget_shed = true;
                self.budget_shed_any = true;
                self.metrics.add(budget_names::SHED_EVENTS, 1);
                return true;
            }
        }
        false
    }

    /// Shrink the world after peer deaths: the dead physical ranks
    /// leave the logical rank space, their unmatched frames are
    /// discarded, and survivors renumber densely in physical-id order —
    /// every survivor computes the same mapping from the same schedule.
    pub fn remove_dead(&mut self, dead: &[usize]) {
        self.world.retain(|p| !dead.contains(p));
        assert!(
            self.world.contains(&self.rank),
            "rank {} cannot remove itself from the world",
            self.rank
        );
        self.lrank = self
            .world
            .iter()
            .position(|&p| p == self.rank)
            .expect("self is in the world");
        for &p in dead {
            self.pending[p].clear();
            self.rel_holdback[p] = None;
        }
        // The shrunken world is a new attempt: its checkpoint deposits
        // must not collide with the failed attempt's, and its portable
        // progress starts over.
        self.run_attempt += 1;
        self.portable_boundary = None;
    }

    // ----- phase-boundary checkpoints -----

    /// Whether this run keeps a checkpoint store (i.e. a rank can die).
    /// Pipelines consult this to decide whether to retain snapshot
    /// inputs during their passes; fault-free runs skip that work.
    pub fn checkpointing(&self) -> bool {
        self.checkpoints.is_some()
    }

    /// Which attempt of the run this world is executing: 0 until the
    /// first rank death, +1 per recovery round.
    pub fn run_attempt(&self) -> u32 {
        self.run_attempt
    }

    /// Commit this rank's snapshot for the upcoming `phase` boundary
    /// into the shared store. `Some(payload)` commits a portable
    /// (restorable-anywhere) snapshot; `None` commits a metadata-only
    /// record that proves the boundary was reached but cannot seed a
    /// shrunken world. No-op without a store.
    pub fn checkpoint_commit(&mut self, phase: Phase, payload: Option<Vec<u8>>) {
        let Some(store) = self.checkpoints.clone() else {
            return;
        };
        let portable = payload.is_some();
        if portable {
            self.portable_boundary = Some(
                self.portable_boundary
                    .map_or(phase.index(), |b| b.max(phase.index())),
            );
        }
        let payload = payload.unwrap_or_default();
        self.metric_add(recovery_names::CHECKPOINT_COMMITS, 1);
        self.metric_add(recovery_names::CHECKPOINT_BYTES, payload.len() as u64);
        store.deposit(
            self.run_attempt,
            phase.index(),
            self.lrank,
            &self.world,
            portable,
            payload,
            self.clock,
        );
    }

    /// This rank's vote in the recovery commit protocol: the highest
    /// boundary of the current attempt where it deposited a portable
    /// snapshot. Ranks abort an attempt at the same schedule boundary,
    /// so this is deterministic per rank; the survivors' allreduce-min
    /// over these votes is the last *globally* committed restorable
    /// boundary.
    pub fn checkpoint_portable_boundary(&self) -> Option<usize> {
        self.portable_boundary
    }

    /// Fetch all payloads of `attempt`'s snapshot at `phase_idx`, in
    /// the failed world's logical-rank order, re-verifying every CRC-32
    /// stamp. Blocks until every member of the failed world has
    /// deposited the boundary (free-running threads may still be
    /// unwinding toward their own aborts — every one of them commits
    /// this boundary first, so the wait terminates). Counts a restore on
    /// success; a `None` on a boundary the commit protocol agreed on
    /// means an integrity failure — counted, and the caller must fall
    /// back to a full restart.
    pub fn checkpoint_fetch(&mut self, attempt: u32, phase_idx: usize) -> Option<Vec<Vec<u8>>> {
        let store = self.checkpoints.clone()?;
        store.wait_complete(attempt, phase_idx);
        // Scheduled checkpoint rot fires between completeness and
        // verification — the deterministic window a real parallel
        // filesystem would corrupt in. The store's corruption is
        // idempotent, so every survivor may trigger it.
        if let Some(fault) = self.fault.clone() {
            if fault.corrupt_checkpoint(attempt, phase_idx) {
                store.corrupt(attempt, phase_idx);
            }
        }
        match store.fetch(attempt, phase_idx) {
            Some(payloads) => {
                self.metric_add(recovery_names::CHECKPOINT_RESTORES, 1);
                Some(payloads)
            }
            None => {
                self.metric_add(recovery_names::CHECKPOINT_CRC_FAILURES, 1);
                None
            }
        }
    }

    fn stats(&self) -> RankStats {
        let mut phases = Vec::with_capacity(self.phase_marks.len());
        for (i, &(name, start)) in self.phase_marks.iter().enumerate() {
            let end = self
                .phase_marks
                .get(i + 1)
                .map(|&(_, t)| t)
                .unwrap_or(self.clock);
            phases.push((name, end - start));
        }
        let wall = (self.clock_mode == ClockMode::Wall).then(|| {
            let now = self.wall_now();
            let phases = self
                .wall_marks
                .iter()
                .enumerate()
                .map(|(i, &start)| self.wall_marks.get(i + 1).copied().unwrap_or(now) - start)
                .collect();
            WallStats { time: now, phases }
        });
        RankStats {
            rank: self.rank,
            time: self.clock,
            ops: self.ops,
            msgs_sent: self.msgs_sent,
            bytes_sent: self.bytes_sent,
            bytes_to: self.bytes_to.clone(),
            peak_mem: self.peak_mem,
            phases,
            wall,
        }
    }

    // ----- point to point -----

    /// Send raw bytes to logical rank `dst` with `tag`. Eager and
    /// non-blocking.
    pub fn send_bytes(&mut self, dst: usize, tag: u32, payload: Vec<u8>) {
        assert!(dst < self.size(), "send to rank {dst} of {}", self.size());
        assert!(
            tag < COLLECTIVE_TAG_BASE,
            "user tags must be < {COLLECTIVE_TAG_BASE:#x}"
        );
        self.send_bytes_internal(dst, tag, payload);
    }

    fn send_bytes_internal(&mut self, dst: usize, tag: u32, payload: Vec<u8>) {
        let dst = self.world[dst];
        let t0 = self.clock;
        let bytes = payload.len();
        self.clock += self.machine.send_overhead;
        self.msgs_sent += 1;
        self.bytes_sent += bytes as u64;
        self.bytes_to[dst] += bytes as u64;
        // Fault hook: the sender has already paid the overhead and the
        // stats already count the message (the NIC accepted it); the
        // layer decides what the network does with it afterwards. With
        // the reliable transport on, whatever the layer does is masked:
        // the frame still goes out with its original stamp, and the
        // protocol's effort is visible only in the metrics shard.
        let mut stamp = self.clock;
        let mut duplicate = false;
        let mut hold = false;
        let mut corrupt_wire = false;
        if let Some(fault) = self.fault.clone() {
            let reliable_on = self.reliability.enabled;
            let mut ctx = MsgCtx {
                src: self.rank,
                dst,
                tag,
                bytes,
                seq: self.send_seq,
                attempt: 0,
            };
            self.send_seq += 1;
            loop {
                match fault.on_send(&ctx) {
                    FaultAction::Deliver => break,
                    FaultAction::Delay(extra) => {
                        assert!(extra >= 0.0 && extra.is_finite(), "delay must be finite");
                        self.metrics.add(FAULTS_DELAYED, 1);
                        if reliable_on {
                            // Masked: the protocol's redundant copy wins
                            // the race, preserving original timing.
                            self.metrics.add(reliable::MASKED_DELAYS, 1);
                        } else {
                            stamp += extra;
                        }
                        break;
                    }
                    FaultAction::Drop => {
                        self.metrics.add(FAULTS_DROPPED, 1);
                        if !reliable_on {
                            if self.tracing() {
                                // The frame never reaches the wire and
                                // consumes no transport sequence number
                                // (a gap would wedge the receiver's
                                // reorder window): the sentinel seq
                                // marks it unmatchable.
                                self.record(
                                    TraceEventKind::Send {
                                        dst,
                                        tag,
                                        bytes,
                                        seq: u64::MAX,
                                    },
                                    t0,
                                    self.clock,
                                );
                            }
                            return;
                        }
                        ctx.attempt += 1;
                        if ctx.attempt >= self.reliability.max_attempts {
                            // The layer is adversarial (drops every
                            // attempt); force delivery rather than spin —
                            // unrecoverable loss is modeled by rank
                            // death, not infinite message loss.
                            self.rel_retry.exhausted += 1;
                            self.metrics.add(reliable::RETRANSMIT_EXHAUSTED, 1);
                            break;
                        }
                        // Ack deadline passed: retransmit after
                        // exponential backoff. The wait is NIC-level
                        // bookkeeping overlapping the latency already
                        // charged for the message, so it shows up in
                        // metrics, not on the virtual clock.
                        let wait = backoff_delay(&self.reliability, ctx.attempt);
                        self.rel_retry.retransmits += 1;
                        self.rel_retry.last_backoff = wait;
                        self.metrics.add(reliable::RETRANSMITS, 1);
                        self.metrics
                            .observe(reliable::BACKOFF_MICROS, (wait * 1e6) as u64);
                    }
                    FaultAction::Duplicate => {
                        self.metrics.add(FAULTS_DUPLICATED, 1);
                        duplicate = true;
                        break;
                    }
                    FaultAction::Reorder => {
                        self.metrics.add(FAULTS_REORDERED, 1);
                        hold = true;
                        break;
                    }
                    FaultAction::Corrupt => {
                        self.metrics.add(FAULTS_CORRUPTED, 1);
                        self.rel_retry.corrupt_seen += 1;
                        if !reliable_on {
                            // The flipped frame goes on the wire; the
                            // receiver's CRC check rejects it.
                            corrupt_wire = true;
                            break;
                        }
                        // The checksum mismatch is caught before the
                        // frame leaves the NIC — handled exactly like a
                        // drop, so a retransmit heals it and corruption
                        // schedules stay byte-invisible.
                        self.rel_retry.corrupt_dropped += 1;
                        self.metrics.add(reliable::CORRUPT_DROPPED, 1);
                        ctx.attempt += 1;
                        if ctx.attempt >= self.reliability.max_attempts {
                            self.rel_retry.exhausted += 1;
                            self.metrics.add(reliable::RETRANSMIT_EXHAUSTED, 1);
                            break;
                        }
                        let wait = backoff_delay(&self.reliability, ctx.attempt);
                        self.rel_retry.retransmits += 1;
                        self.rel_retry.last_backoff = wait;
                        self.metrics.add(reliable::RETRANSMITS, 1);
                        self.metrics
                            .observe(reliable::BACKOFF_MICROS, (wait * 1e6) as u64);
                    }
                }
            }
        }
        let seq = self.rel_next_seq[dst];
        self.rel_next_seq[dst] += 1;
        // The checksum is always over the *original* payload: a wire
        // flip after it (below) is exactly what delivery detects.
        let crc = crc32(&payload);
        let mut payload = payload;
        let mut crc_field = crc;
        if corrupt_wire {
            if payload.is_empty() {
                // Nothing to flip in an empty payload; corrupt the
                // checksum field itself instead.
                crc_field ^= 1;
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
            crc: crc_field,
            payload: payload.into_boxed_slice(),
        };
        if duplicate {
            let copy = Envelope {
                src: env.src,
                tag,
                seq,
                stamp,
                crc: env.crc,
                payload: env.payload.clone(),
            };
            self.transmit(dst, copy);
            self.transmit(dst, env);
            if let Some(prev) = self.rel_holdback[dst].take() {
                self.transmit(dst, prev);
            }
        } else if hold {
            // Held back so the next frame to dst overtakes it. At most
            // one frame is ever held per destination: a previously held
            // frame goes out now.
            if let Some(prev) = self.rel_holdback[dst].take() {
                self.transmit(dst, prev);
            }
            self.rel_holdback[dst] = Some(env);
        } else {
            self.transmit(dst, env);
            if let Some(prev) = self.rel_holdback[dst].take() {
                self.transmit(dst, prev);
            }
        }
        if self.tracing() {
            self.record(
                TraceEventKind::Send {
                    dst,
                    tag,
                    bytes,
                    seq,
                },
                t0,
                self.clock,
            );
        }
    }

    /// Hand one frame to the (lossless) simulated network, `dst`
    /// physical.
    fn transmit(&mut self, dst: usize, env: Envelope) {
        if dst == self.rank {
            self.ingest_frame(env);
            return;
        }
        let (tag, bytes) = (env.tag, env.payload.len());
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
                self.metrics.add(crate::fault::SENDS_TO_EXITED, 1);
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
    fn ingest_frame(&mut self, env: Envelope) {
        let src = env.src as usize;
        let got = crc32(&env.payload);
        if got != env.crc {
            // Only reachable with reliability off: the reliable sender
            // intercepts corruption before transmitting. Keep the first
            // failure if several frames arrive corrupt.
            self.rel_retry.corrupt_seen += 1;
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
        match self.rel_rx[src].ingest(env.seq, env, &mut released) {
            Ingest::Duplicate => {
                self.metrics.add(reliable::DUPLICATES_DROPPED, 1);
            }
            Ingest::Buffered => {
                self.metrics.add(reliable::REORDER_BUFFERED, 1);
                self.metrics
                    .observe(reliable::REORDER_DEPTH, self.rel_rx[src].depth() as u64);
            }
            Ingest::Delivered => {
                self.metrics.add(reliable::ACKS, released.len() as u64);
            }
        }
        for e in released {
            self.pending[src].push_back(e);
        }
    }

    /// Release every held-back (reorder-injected) frame. Called before
    /// any blocking receive, at phase boundaries, and at rank exit, so
    /// a held frame can never deadlock the peer waiting on it.
    fn flush_holdbacks(&mut self) {
        for dst in 0..self.rel_holdback.len() {
            if let Some(env) = self.rel_holdback[dst].take() {
                self.transmit(dst, env);
            }
        }
    }

    /// Send a typed message.
    pub fn send<T: Wire>(&mut self, dst: usize, tag: u32, value: &T) {
        assert!(
            tag < COLLECTIVE_TAG_BASE,
            "user tags must be < {COLLECTIVE_TAG_BASE:#x}"
        );
        self.send_bytes_internal(dst, tag, value.to_bytes());
    }

    /// Pop the first buffered frame from physical `src` matching `tag`.
    fn take_pending(&mut self, src: usize, tag: u32) -> Option<Envelope> {
        let pos = self.pending[src].iter().position(|e| e.tag == tag)?;
        Some(self.pending[src].remove(pos).expect("position valid"))
    }

    /// Blocking receive of the next message from logical rank `src` with
    /// `tag` (FIFO per `(src, tag)` pair), reporting an unsatisfiable or
    /// mismatched pattern as a structured [`CommError`] instead of
    /// panicking.
    pub fn try_recv_bytes(&mut self, src: usize, tag: u32) -> Result<Vec<u8>, CommError> {
        assert!(src < self.size(), "recv from rank {src} of {}", self.size());
        let src = self.world[src];
        // A frame we hold back (reorder injection) may be the very one a
        // peer needs before it can send us ours: release them all before
        // any chance of blocking.
        if self.fault.is_some() {
            self.flush_holdbacks();
        }
        // A corrupt frame may have been detected outside any receive
        // (self-delivery, drain): surface it now, before anything else —
        // data loss outranks whatever else this call would have found.
        if let Some(err) = self.corrupt_stash.take() {
            return Err(err);
        }
        // Check already-buffered messages from src first.
        if let Some(env) = self.take_pending(src, tag) {
            return Ok(self.accept(env));
        }
        // A receive from this rank itself can only match a buffered
        // self-send (self-sends never travel the channel): nothing
        // buffered means nothing can ever arrive. This also covers every
        // recv on a solo communicator.
        if src == self.rank || self.rx.is_none() {
            return Err(CommError::Unsatisfiable {
                rank: self.rank,
                size: self.size,
                src,
                tag,
                pending: self.pending_snapshot(),
                recent: self.recent_events(),
            });
        }
        let watchdog = self.trace.as_ref().and_then(|h| h.config.watchdog);
        let poll = (self.kills_scheduled && self.failure.is_some()).then_some(DETECTOR_POLL);
        let mut waited = Duration::ZERO;
        loop {
            // A dead expected source can never satisfy this receive.
            // Drain anything already in flight (frames it sent before
            // dying) first, then report the death.
            if poll.is_some() && self.failure.as_ref().is_some_and(|d| !d.is_alive(src)) {
                self.drain_rx();
                if let Some(err) = self.corrupt_stash.take() {
                    return Err(err);
                }
                if let Some(env) = self.take_pending(src, tag) {
                    return Ok(self.accept(env));
                }
                return Err(self.rank_dead_error(src, tag));
            }
            let slice = match (watchdog, poll) {
                (None, None) => None,
                (Some(w), None) => Some(w.saturating_sub(waited)),
                (None, Some(p)) => Some(p),
                (Some(w), Some(p)) => Some(p.min(w.saturating_sub(waited))),
            };
            let rx = self.rx.as_ref().expect("communicator active");
            let env = match slice {
                None => match rx.recv() {
                    Ok(env) => env,
                    Err(_) => return Err(self.disconnected_error(src, tag)),
                },
                Some(slice) => match rx.recv_timeout(slice) {
                    Ok(env) => env,
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(self.disconnected_error(src, tag))
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        waited += slice;
                        if watchdog.is_some_and(|w| waited >= w) {
                            return Err(CommError::Stalled {
                                rank: self.rank,
                                src,
                                tag,
                                waited,
                                pending: self.pending_snapshot(),
                                recent: self.recent_events(),
                                all_ranks: self.trace.as_ref().map(|h| h.dump_all(DUMP_TAIL)),
                                transport: self.transport_snapshot(),
                            });
                        }
                        continue;
                    }
                },
            };
            self.ingest_frame(env);
            if let Some(err) = self.corrupt_stash.take() {
                return Err(err);
            }
            // Progress resets the watchdog (it guards against a silent
            // stall, not total elapsed time).
            waited = Duration::ZERO;
            if let Some(env) = self.take_pending(src, tag) {
                return Ok(self.accept(env));
            }
        }
    }

    /// Non-blocking: pull everything already delivered into the pending
    /// queues.
    fn drain_rx(&mut self) {
        loop {
            let env = match &self.rx {
                Some(rx) => match rx.try_recv() {
                    Ok(env) => env,
                    Err(_) => return,
                },
                None => return,
            };
            self.ingest_frame(env);
        }
    }

    fn rank_dead_error(&self, dead: usize, tag: u32) -> CommError {
        let info = self
            .failure
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
    fn transport_snapshot(&self) -> Option<Box<TransportSnapshot>> {
        if !self.reliability.enabled && self.fault.is_none() {
            return None;
        }
        Some(Box::new(TransportSnapshot {
            retransmits: self.rel_retry.retransmits,
            last_backoff: self.rel_retry.last_backoff,
            exhausted: self.rel_retry.exhausted,
            corrupt_seen: self.rel_retry.corrupt_seen,
            corrupt_dropped: self.rel_retry.corrupt_dropped,
            reorder: self
                .rel_rx
                .iter()
                .enumerate()
                .filter(|(_, b)| b.depth() > 0)
                .map(|(s, b)| (s, b.depth(), b.expected()))
                .collect(),
        }))
    }

    fn disconnected_error(&self, src: usize, tag: u32) -> CommError {
        CommError::PeersDisconnected {
            rank: self.rank,
            src,
            tag,
            pending: self.pending_snapshot(),
            recent: self.recent_events(),
        }
    }

    /// Blocking receive of the next message from `src` with `tag`.
    /// Returns the payload; panics with the full [`CommError`] diagnosis
    /// on a pattern that can never complete, a dead peer, or a corrupt
    /// frame. Callers that want to *handle* those (rather than die with
    /// the diagnosis) use [`Comm::try_recv_bytes`], which returns the
    /// same structured error.
    pub fn recv_bytes(&mut self, src: usize, tag: u32) -> Vec<u8> {
        self.try_recv_bytes(src, tag)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn accept(&mut self, env: Envelope) -> Vec<u8> {
        // The wire can deliver no earlier than stamp + latency, and the
        // receiver's link is then occupied for the payload's transfer
        // time (LogGP's per-byte gap): back-to-back receives serialize
        // at the receiver rather than arriving for free in parallel.
        let t0 = self.clock;
        let ready = self.clock + self.machine.recv_overhead;
        let start = ready.max(env.stamp + self.machine.latency);
        self.clock = start + env.payload.len() as f64 * self.machine.sec_per_byte;
        // Recv-side wait: the interval between this rank being ready and
        // the wire actually delivering — the sender was the binding
        // dependency. Metrics only; the clock charge above is unchanged.
        if start > ready {
            self.metrics
                .add(RECV_WAIT_MICROS, ((start - ready) * 1e6) as u64);
        }
        if self.tracing() {
            self.record(
                TraceEventKind::Recv {
                    src: env.src as usize,
                    tag: env.tag,
                    bytes: env.payload.len(),
                    seq: env.seq,
                    stamp: env.stamp,
                },
                t0,
                self.clock,
            );
        }
        env.payload.into_vec()
    }

    /// Blocking typed receive with structured errors: decode failures
    /// and unsatisfiable patterns both surface as [`CommError`].
    pub fn try_recv<T: Wire>(&mut self, src: usize, tag: u32) -> Result<T, CommError> {
        let bytes = self.try_recv_bytes(src, tag)?;
        T::from_bytes(&bytes).map_err(|error| CommError::Decode {
            rank: self.rank,
            src,
            tag,
            error,
        })
    }

    /// Blocking typed receive. Panics on a decode failure (a type mismatch
    /// between sender and receiver is a programming error, not input) and
    /// on any [`CommError`] — always with the structured diagnosis, never
    /// a bare message. Use [`Comm::try_recv`] to handle the error instead.
    pub fn recv<T: Wire>(&mut self, src: usize, tag: u32) -> T {
        self.try_recv(src, tag).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Collective-internal receive: like [`Comm::recv`] but the panic
    /// names the collective whose internal exchange failed, so a corrupt
    /// frame or dead peer inside e.g. an `allgather` is attributed to
    /// the operation the caller actually invoked.
    fn coll_recv<T: Wire>(&mut self, op: &'static str, src: usize, tag: u32) -> T {
        self.try_recv(src, tag)
            .unwrap_or_else(|e| panic!("collective {op} failed: {e}"))
    }

    // ----- collectives -----

    fn next_coll_tag(&mut self) -> u32 {
        let tag = COLLECTIVE_TAG_BASE | (self.coll_seq & 0x7FFF_FFFF);
        self.coll_seq = self.coll_seq.wrapping_add(1);
        tag
    }

    fn coll_enter(&mut self, op: &'static str) {
        if self.tracing() {
            self.record(TraceEventKind::Collective { op }, self.clock, self.clock);
        }
    }

    fn send_tagged<T: Wire>(&mut self, dst: usize, tag: u32, value: &T) {
        self.send_bytes_internal(dst, tag, value.to_bytes());
    }

    /// Block until all ranks reach the barrier; clocks synchronize to the
    /// slowest participant (plus tree costs).
    pub fn barrier(&mut self) {
        self.coll_enter("barrier");
        let tag = self.next_coll_tag();
        self.reduce_tagged(0, (), |_, _| (), tag);
        let tag2 = self.next_coll_tag();
        self.bcast_tagged(0, Some(()), tag2);
    }

    /// Broadcast `value` from `root`. `value` must be `Some` on the root
    /// and is ignored elsewhere.
    pub fn bcast<T: Wire>(&mut self, root: usize, value: Option<T>) -> T {
        self.coll_enter("bcast");
        let tag = self.next_coll_tag();
        self.bcast_tagged(root, value, tag)
    }

    fn bcast_tagged<T: Wire>(&mut self, root: usize, value: Option<T>, tag: u32) -> T {
        let (rank, size) = (self.lrank, self.size());
        assert!(root < size);
        let rel = (rank + size - root) % size;
        let mut value = if rel == 0 {
            Some(value.expect("root must supply the broadcast value"))
        } else {
            None
        };
        let mut step = 1;
        while step < size {
            if rel < step {
                let dst_rel = rel + step;
                if dst_rel < size {
                    let dst = (dst_rel + root) % size;
                    let v = value.as_ref().expect("already received");
                    self.send_tagged(dst, tag, v);
                }
            } else if rel < 2 * step {
                let src = (rel - step + root) % size;
                value = Some(self.coll_recv("bcast", src, tag));
            }
            step <<= 1;
        }
        value.expect("broadcast reaches every rank")
    }

    /// Reduce all ranks' values to `root` with `op` (binomial tree; the
    /// combine order is fixed by the tree, hence deterministic). Returns
    /// `Some(result)` on the root, `None` elsewhere.
    pub fn reduce<T: Wire, F: FnMut(T, T) -> T>(
        &mut self,
        root: usize,
        value: T,
        op: F,
    ) -> Option<T> {
        self.coll_enter("reduce");
        let tag = self.next_coll_tag();
        self.reduce_tagged(root, value, op, tag)
    }

    fn reduce_tagged<T: Wire, F: FnMut(T, T) -> T>(
        &mut self,
        root: usize,
        value: T,
        mut op: F,
        tag: u32,
    ) -> Option<T> {
        let (rank, size) = (self.lrank, self.size());
        assert!(root < size);
        let rel = (rank + size - root) % size;
        let mut acc = value;
        let mut step = 1;
        while step < size {
            if rel & step != 0 {
                let dst = (rel - step + root) % size;
                self.send_tagged(dst, tag, &acc);
                return None;
            }
            if rel + step < size {
                let src = (rel + step + root) % size;
                let other: T = self.coll_recv("reduce", src, tag);
                acc = op(acc, other);
            }
            step <<= 1;
        }
        debug_assert_eq!(rel, 0);
        Some(acc)
    }

    /// Reduce to rank 0 then broadcast: every rank gets the result.
    pub fn allreduce<T: Wire, F: FnMut(T, T) -> T>(&mut self, value: T, op: F) -> T {
        self.coll_enter("allreduce");
        let r = {
            let tag = self.next_coll_tag();
            self.reduce_tagged(0, value, op, tag)
        };
        let tag = self.next_coll_tag();
        self.bcast_tagged(0, r, tag)
    }

    /// Gather all ranks' values at `root`, in rank order.
    pub fn gather<T: Wire>(&mut self, root: usize, value: T) -> Option<Vec<T>> {
        self.coll_enter("gather");
        let tag = self.next_coll_tag();
        let (rank, size) = (self.lrank, self.size());
        if rank == root {
            let mut out = Vec::with_capacity(size);
            for src in 0..size {
                if src == root {
                    out.push(T::from_bytes(&value.to_bytes()).expect("self roundtrip"));
                } else {
                    out.push(self.coll_recv("gather", src, tag));
                }
            }
            Some(out)
        } else {
            self.send_tagged(root, tag, &value);
            None
        }
    }

    /// Gather at rank 0 then broadcast the whole vector.
    pub fn allgather<T: Wire>(&mut self, value: T) -> Vec<T> {
        self.coll_enter("allgather");
        let (rank, size) = (self.lrank, self.size());
        let g = {
            let tag = self.next_coll_tag();
            if rank == 0 {
                let mut out = Vec::with_capacity(size);
                for src in 0..size {
                    if src == 0 {
                        out.push(T::from_bytes(&value.to_bytes()).expect("self roundtrip"));
                    } else {
                        out.push(self.coll_recv("allgather", src, tag));
                    }
                }
                Some(out)
            } else {
                self.send_tagged(0, tag, &value);
                None
            }
        };
        let tag = self.next_coll_tag();
        self.bcast_tagged(0, g, tag)
    }

    /// Scatter one value per rank from `root` (which must pass a vector of
    /// exactly `size` entries).
    pub fn scatter<T: Wire>(&mut self, root: usize, values: Option<Vec<T>>) -> T {
        self.coll_enter("scatter");
        let tag = self.next_coll_tag();
        let (rank, size) = (self.lrank, self.size());
        if rank == root {
            let values = values.expect("root must supply scatter values");
            assert_eq!(values.len(), size, "scatter needs one value per rank");
            let mut own = None;
            for (dst, v) in values.into_iter().enumerate() {
                if dst == root {
                    own = Some(v);
                } else {
                    self.send_tagged(dst, tag, &v);
                }
            }
            own.expect("root keeps its own slice")
        } else {
            self.coll_recv("scatter", root, tag)
        }
    }

    /// Personalized all-to-all: `data[dst]` goes to rank `dst`; returns
    /// the vector received from each source (own slice passes through).
    pub fn alltoall<T: Wire>(&mut self, data: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let (rank, size) = (self.lrank, self.size());
        assert_eq!(data.len(), size, "alltoall needs one bucket per rank");
        self.coll_enter("alltoall");
        let tag = self.next_coll_tag();
        // Eager sends first (channels are unbounded, so this cannot block),
        // then receive in rank order for determinism.
        let mut own: Vec<T> = Vec::new();
        for (dst, bucket) in data.into_iter().enumerate() {
            if dst == rank {
                own = bucket;
            } else {
                self.send_tagged(dst, tag, &bucket);
            }
        }
        let mut out: Vec<Vec<T>> = Vec::with_capacity(size);
        for src in 0..size {
            if src == rank {
                out.push(std::mem::take(&mut own));
            } else {
                out.push(self.coll_recv("alltoall", src, tag));
            }
        }
        out
    }
}

/// Execute `f` as an SPMD program over `size` ranks on the given machine.
///
/// One OS thread per rank; returns every rank's result plus timing stats.
/// Panics in any rank propagate.
///
/// ```
/// use pgr_mpi::{run, MachineModel};
/// let report = run(4, MachineModel::sparc_center_1000(), |comm| {
///     comm.compute(1000 * (comm.rank() as u64 + 1)); // uneven work
///     comm.allreduce(comm.rank() as u64, |a, b| a + b)
/// });
/// assert!(report.results.iter().all(|&v| v == 6));
/// assert!(report.makespan() > 0.0);
/// ```
pub fn run<R, F>(size: usize, machine: MachineModel, f: F) -> RunReport<R>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Send + Sync,
{
    run_instrumented(size, machine, InstrumentConfig::off(), f).0
}

/// [`run`] with the full instrumentation bundle: event tracing, per-rank
/// metric shards, and an optional fault layer. Returns the report, one
/// [`RankTrace`] per rank (empty when tracing is off), and one
/// [`RankMetrics`] per rank (empty when metrics are off).
///
/// ```
/// use pgr_mpi::{run_instrumented, InstrumentConfig, MachineModel};
/// let (report, _traces, metrics) =
///     run_instrumented(2, MachineModel::ideal(), InstrumentConfig::metered(), |comm| {
///         comm.metric_add("demo.work", comm.rank() as u64 + 1);
///         comm.metric_observe("demo.sizes", 42);
///     });
/// assert_eq!(metrics.len(), 2);
/// assert_eq!(metrics[1].counter("demo.work"), Some(2));
/// assert_eq!(report.stats.len(), 2);
/// ```
pub fn run_instrumented<R, F>(
    size: usize,
    machine: MachineModel,
    instr: InstrumentConfig,
    f: F,
) -> (RunReport<R>, Vec<RankTrace>, Vec<RankMetrics>)
where
    R: Send,
    F: Fn(&mut Comm) -> R + Send + Sync,
{
    assert!(size > 0, "need at least one rank");
    let trace = instr.trace;
    let hub =
        (trace.enabled || trace.watchdog.is_some()).then(|| Arc::new(TraceHub::new(size, trace)));
    // The failure detector only exists when faults can happen.
    let failure = instr
        .fault
        .is_some()
        .then(|| Arc::new(FailureDetector::new(size)));
    let kills_scheduled = instr
        .fault
        .as_ref()
        .is_some_and(|f| (0..size).any(|r| f.kill_at_boundary(r).is_some()));
    // The checkpoint store exists only when a rank can actually die (or
    // the caller wants a handle on it): fault-free and messages-only
    // chaos runs never deposit, keeping them bit-identical and
    // snapshot-free.
    let checkpoints = instr
        .checkpoints
        .clone()
        .or_else(|| kills_scheduled.then(|| Arc::new(CheckpointStore::new())));
    let mut txs = Vec::with_capacity(size);
    let mut rxs = Vec::with_capacity(size);
    for _ in 0..size {
        let (tx, rx) = channel();
        txs.push(tx);
        rxs.push(rx);
    }
    // One epoch for the whole run, taken before any rank spawns, so
    // per-rank wall times share a zero and their max is a real makespan.
    let wall_epoch = Instant::now();

    let mut comms: Vec<Comm> = rxs
        .into_iter()
        .enumerate()
        .map(|(rank, rx)| {
            let mut comm = Comm::unconnected(rank, size, machine, &instr, wall_epoch);
            comm.txs = txs
                .iter()
                .enumerate()
                .map(|(i, tx)| (i != rank).then(|| tx.clone()))
                .collect();
            comm.rx = Some(rx);
            comm.trace = hub.clone();
            comm.failure = failure.clone();
            comm.kills_scheduled = kills_scheduled;
            comm.checkpoints = checkpoints.clone();
            comm
        })
        .collect();
    drop(txs);
    drop(failure);

    let f = &f;
    let outcomes: Vec<(R, RankStats, RankMetrics)> = std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .iter_mut()
            .map(|comm| {
                scope.spawn(move || {
                    let result = f(comm);
                    // Release any reorder-held frames: no peer may be
                    // left waiting on a frame parked in this rank's
                    // holdback after it exits.
                    comm.flush_holdbacks();
                    // Drop this rank's sender handles so blocked peers can
                    // detect a mismatched communication pattern instead of
                    // hanging forever.
                    comm.txs.clear();
                    comm.rx = None;
                    if let Some(hub) = &comm.trace {
                        hub.set_final_time(comm.rank, comm.clock);
                    }
                    (result, comm.stats(), comm.metrics_snapshot())
                })
            })
            .collect();
        // Re-raise the original payload so a rank's diagnostic message
        // (e.g. a `CommError` display) survives to the caller verbatim.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });

    let metrics_on = instr.metrics.enabled;
    let mut results = Vec::with_capacity(size);
    let mut stats = Vec::with_capacity(size);
    let mut metrics = Vec::with_capacity(if metrics_on { size } else { 0 });
    for (r, s, m) in outcomes {
        results.push(r);
        stats.push(s);
        if metrics_on {
            metrics.push(m);
        }
    }
    // Release the per-rank hub references so the Arc unwraps cleanly.
    comms.clear();
    let traces = match hub {
        Some(hub) => Arc::try_unwrap(hub)
            .expect("all rank handles dropped")
            .into_traces(),
        None => Vec::new(),
    };
    (
        RunReport {
            results,
            stats,
            machine,
        },
        traces,
        metrics,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZES: [usize; 5] = [1, 2, 3, 5, 8];

    #[test]
    fn point_to_point_roundtrip() {
        let report = run(2, MachineModel::ideal(), |c| {
            if c.rank() == 0 {
                c.send(1, 7, &vec![1u32, 2, 3]);
                c.recv::<String>(1, 8)
            } else {
                let v: Vec<u32> = c.recv(0, 7);
                c.send(0, 8, &format!("got {v:?}"));
                String::new()
            }
        });
        assert_eq!(report.results[0], "got [1, 2, 3]");
        assert_eq!(report.total_msgs_sent(), 2);
    }

    #[test]
    fn tag_matching_reorders() {
        // Rank 0 sends tag 2 then tag 1; rank 1 receives tag 1 first.
        let report = run(2, MachineModel::ideal(), |c| {
            if c.rank() == 0 {
                c.send(1, 2, &20u32);
                c.send(1, 1, &10u32);
                0
            } else {
                let first: u32 = c.recv(0, 1);
                let second: u32 = c.recv(0, 2);
                assert_eq!((first, second), (10, 20));
                1
            }
        });
        assert_eq!(report.results.len(), 2);
    }

    #[test]
    fn fifo_per_src_tag_pair() {
        let report = run(2, MachineModel::ideal(), |c| {
            if c.rank() == 0 {
                for i in 0..10u32 {
                    c.send(1, 3, &i);
                }
                vec![]
            } else {
                (0..10).map(|_| c.recv::<u32>(0, 3)).collect::<Vec<u32>>()
            }
        });
        assert_eq!(report.results[1], (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn bcast_all_sizes_all_roots() {
        for &size in &SIZES {
            for root in 0..size {
                let report = run(size, MachineModel::ideal(), move |c| {
                    let v = if c.rank() == root {
                        Some(42u64 + root as u64)
                    } else {
                        None
                    };
                    c.bcast(root, v)
                });
                assert!(
                    report.results.iter().all(|&v| v == 42 + root as u64),
                    "size {size} root {root}"
                );
            }
        }
    }

    #[test]
    fn reduce_sums_all_sizes() {
        for &size in &SIZES {
            let report = run(size, MachineModel::ideal(), |c| {
                c.reduce(0, c.rank() as u64 + 1, |a, b| a + b)
            });
            let expect = (size * (size + 1) / 2) as u64;
            assert_eq!(report.results[0], Some(expect), "size {size}");
            for r in 1..size {
                assert_eq!(report.results[r], None);
            }
        }
    }

    #[test]
    fn allreduce_max() {
        for &size in &SIZES {
            let report = run(size, MachineModel::ideal(), |c| {
                c.allreduce(c.rank() as u64, u64::max)
            });
            assert!(report.results.iter().all(|&v| v == size as u64 - 1));
        }
    }

    #[test]
    fn gather_is_rank_ordered() {
        let report = run(4, MachineModel::ideal(), |c| {
            c.gather(2, c.rank() as u32 * 10)
        });
        assert_eq!(report.results[2], Some(vec![0, 10, 20, 30]));
        assert_eq!(report.results[0], None);
    }

    #[test]
    fn allgather_everyone_gets_everything() {
        for &size in &SIZES {
            let report = run(size, MachineModel::ideal(), |c| {
                c.allgather(c.rank() as u32)
            });
            let expect: Vec<u32> = (0..size as u32).collect();
            assert!(report.results.iter().all(|v| *v == expect));
        }
    }

    #[test]
    fn scatter_distributes() {
        let report = run(3, MachineModel::ideal(), |c| {
            let vals = if c.rank() == 1 {
                Some(vec![100u32, 101, 102])
            } else {
                None
            };
            c.scatter(1, vals)
        });
        assert_eq!(report.results, vec![100, 101, 102]);
    }

    #[test]
    fn alltoall_permutes() {
        let report = run(3, MachineModel::ideal(), |c| {
            let data: Vec<Vec<u32>> = (0..3)
                .map(|dst| vec![(c.rank() * 10 + dst) as u32])
                .collect();
            c.alltoall(data)
        });
        // Rank r receives from each src the bucket src*10 + r.
        for r in 0..3 {
            let expect: Vec<Vec<u32>> = (0..3).map(|src| vec![(src * 10 + r) as u32]).collect();
            assert_eq!(report.results[r], expect, "rank {r}");
        }
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let m = MachineModel::sparc_center_1000();
        let report = run(4, m, |c| {
            // Rank 3 does a lot of work before the barrier.
            if c.rank() == 3 {
                c.compute(1_000_000);
            }
            c.barrier();
            c.now()
        });
        let slowest = m.compute_time(1_000_000);
        for (r, &t) in report.results.iter().enumerate() {
            assert!(
                t >= slowest,
                "rank {r} clock {t} must include the slow rank's work"
            );
        }
    }

    #[test]
    fn virtual_time_is_deterministic() {
        let runit = || {
            run(5, MachineModel::intel_paragon(), |c| {
                c.compute(1000 * (c.rank() as u64 + 1));
                let s = c.allreduce(c.rank() as u64, |a, b| a + b);
                c.compute(s);
                let _ = c.allgather(c.now().to_bits());
                c.now()
            })
        };
        let a = runit();
        let b = runit();
        assert_eq!(
            a.results, b.results,
            "virtual clocks are schedule-independent"
        );
        assert_eq!(a.makespan(), b.makespan());
    }

    #[test]
    fn compute_charges_time_and_ops() {
        let m = MachineModel::sparc_center_1000();
        let report = run(1, m, |c| {
            c.compute(500);
            c.now()
        });
        assert!((report.results[0] - m.compute_time(500)).abs() < 1e-12);
        assert_eq!(report.stats[0].ops, 500);
    }

    #[test]
    fn message_cost_appears_on_receiver_clock() {
        let m = MachineModel::intel_paragon();
        let payload = vec![0u8; 4096];
        let n = payload.len();
        let report = run(2, m, move |c| {
            if c.rank() == 0 {
                c.send(1, 1, &payload.clone());
                c.now()
            } else {
                let _: Vec<u8> = c.recv(0, 1);
                c.now()
            }
        });
        let sender = report.results[0];
        let receiver = report.results[1];
        assert!(
            (sender - m.send_overhead).abs() < 1e-9,
            "sender only pays overhead"
        );
        // Vec<u8> wire format adds a 4-byte length prefix.
        let expect = m.send_overhead + m.transfer_time(n + 4);
        assert!(
            (receiver - expect).abs() < 1e-9,
            "receiver {receiver} vs expected {expect}"
        );
    }

    #[test]
    fn memory_accounting_tracks_high_water() {
        let report = run(1, MachineModel::intel_paragon(), |c| {
            c.charge_alloc(10);
            c.charge_alloc(20);
            c.release_alloc(25);
            c.charge_alloc(4);
            c.peak_mem()
        });
        assert_eq!(report.results[0], 30);
        assert_eq!(report.stats[0].peak_mem, 30);
        assert!(report.fits_memory());
    }

    #[test]
    fn memory_gate_detects_oversubscription() {
        let report = run(1, MachineModel::intel_paragon(), |c| {
            c.charge_alloc(64 * 1024 * 1024);
        });
        assert!(!report.fits_memory());
    }

    #[test]
    fn solo_comm_collectives_are_trivial() {
        let mut c = Comm::solo(MachineModel::ideal());
        assert_eq!(c.allreduce(5u32, |a, b| a + b), 5);
        assert_eq!(c.allgather(7u32), vec![7]);
        assert_eq!(c.bcast(0, Some(3u32)), 3);
        c.barrier();
        assert_eq!(c.gather(0, 1u32), Some(vec![1]));
        let a2a = c.alltoall(vec![vec![9u8]]);
        assert_eq!(a2a, vec![vec![9]]);
    }

    #[test]
    fn solo_recv_reports_unsatisfiable_not_hung_up() {
        let mut c = Comm::solo(MachineModel::ideal());
        let err = c.try_recv_bytes(0, 5).expect_err("nothing to receive");
        match &err {
            CommError::Unsatisfiable {
                rank: 0,
                size: 1,
                src: 0,
                tag: 5,
                ..
            } => {}
            other => panic!("expected Unsatisfiable, got {other:?}"),
        }
        assert!(err.to_string().contains("solo communicator"));
    }

    #[test]
    fn solo_self_send_then_recv_works() {
        let mut c = Comm::solo(MachineModel::ideal());
        c.send(0, 4, &77u32);
        assert_eq!(c.recv::<u32>(0, 4), 77);
        // A second receive finds the queue empty again.
        assert!(c.try_recv_bytes(0, 4).is_err());
    }

    #[test]
    fn self_recv_without_send_is_immediate_error_in_parallel_run() {
        let report = run(2, MachineModel::ideal(), |c| {
            if c.rank() == 0 {
                // Receive from *self* with nothing buffered: flagged
                // immediately, not after peers exit.
                c.try_recv_bytes(0, 1).err().map(|e| e.to_string())
            } else {
                None
            }
        });
        let msg = report.results[0].as_ref().expect("error expected");
        assert!(msg.contains("waits on itself"), "{msg}");
    }

    #[test]
    fn interleaved_collectives_do_not_cross_talk() {
        let report = run(4, MachineModel::ideal(), |c| {
            let mut acc = Vec::new();
            for round in 0..20u64 {
                let s = c.allreduce(round + c.rank() as u64, |a, b| a + b);
                let g = c.allgather(s);
                acc.push(g[0]);
            }
            acc
        });
        for r in &report.results {
            for (round, &v) in r.iter().enumerate() {
                let round = round as u64;
                assert_eq!(v, 4 * round + 6, "round {round}");
            }
        }
    }

    #[test]
    fn traced_run_matches_untraced_clocks() {
        let body = |c: &mut Comm| {
            c.phase_mark(Phase::Coarse);
            c.compute(5_000 * (c.rank() as u64 + 1));
            c.phase_mark(Phase::Assemble);
            c.allreduce(c.rank() as u64, |a, b| a + b);
            c.now()
        };
        let plain = run(3, MachineModel::intel_paragon(), body);
        let (traced, traces, _) = run_instrumented(
            3,
            MachineModel::intel_paragon(),
            InstrumentConfig::full(),
            body,
        );
        assert_eq!(
            plain.results, traced.results,
            "tracing must not perturb virtual time"
        );
        assert_eq!(traces.len(), 3);
        for (t, s) in traces.iter().zip(&traced.stats) {
            assert_eq!(t.final_time, s.time);
            assert_eq!(
                t.phase_durations(),
                s.phases,
                "trace-derived phases match stats"
            );
            assert!(t
                .events
                .iter()
                .any(|e| matches!(e.kind, TraceEventKind::Collective { op: "allreduce" })));
        }
    }

    #[test]
    fn untraced_run_returns_no_traces() {
        let (_, traces, _) =
            run_instrumented(2, MachineModel::ideal(), InstrumentConfig::off(), |c| {
                c.rank()
            });
        assert!(traces.is_empty());
    }

    #[test]
    fn wall_mode_adds_measurements_without_touching_the_virtual_account() {
        let body = |c: &mut Comm| {
            c.phase_mark(Phase::Coarse);
            c.compute(10_000 * (c.rank() as u64 + 1));
            c.phase_mark(Phase::Assemble);
            c.allreduce(c.rank() as u64, |a, b| a + b)
        };
        let virt = run_instrumented(
            3,
            MachineModel::intel_paragon(),
            InstrumentConfig::off(),
            body,
        );
        let wall = run_instrumented(
            3,
            MachineModel::intel_paragon(),
            InstrumentConfig {
                clock: ClockMode::Wall,
                ..InstrumentConfig::off()
            },
            body,
        );
        assert_eq!(virt.0.results, wall.0.results, "results are clock-blind");
        assert!(virt.0.stats.iter().all(|s| s.wall.is_none()));
        assert!((virt.0.makespan() - wall.0.makespan()).abs() < 1e-15);
        for (v, w) in virt.0.stats.iter().zip(&wall.0.stats) {
            // Strip the wall layer and the records must be bit-identical.
            let mut stripped = w.clone();
            stripped.wall = None;
            assert_eq!(*v, stripped, "rank {}: virtual account diverged", v.rank);
            let ws = w.wall.as_ref().expect("wall stats present in Wall mode");
            assert!(ws.time >= 0.0 && ws.time.is_finite());
            assert_eq!(ws.phases.len(), w.phases.len(), "one wall span per phase");
            assert!(ws.phases.iter().all(|&d| d >= 0.0));
            // Phase spans partition [first mark, finish]; their sum
            // cannot exceed the rank's total wall time.
            assert!(ws.phases.iter().sum::<f64>() <= ws.time + 1e-9);
        }
        let wm = wall.0.wall_makespan().expect("wall makespan in Wall mode");
        assert!(wall
            .0
            .stats
            .iter()
            .all(|s| { s.wall.as_ref().expect("wall stats").time <= wm }));
        assert_eq!(virt.0.wall_makespan(), None);
    }

    #[test]
    fn wall_clocked_solo_reports_wall_stats() {
        let mut c = Comm::solo_with(
            MachineModel::sparc_center_1000(),
            MetricsConfig::off(),
            ClockMode::Wall,
        );
        assert_eq!(c.clock_mode(), ClockMode::Wall);
        c.phase_mark(Phase::Setup);
        c.compute(1_000);
        let s = c.stats();
        let ws = s.wall.expect("solo wall stats");
        assert_eq!(ws.phases.len(), 1);
        assert!(ws.time >= ws.phases[0]);
        // The virtual account is still live underneath.
        assert!(s.time > 0.0);

        let plain = Comm::solo(MachineModel::sparc_center_1000());
        assert_eq!(plain.clock_mode(), ClockMode::Virtual);
        assert!(plain.stats().wall.is_none());
    }
}
