//! The communicator: SPMD ranks, point-to-point messages, collectives,
//! and per-rank virtual clocks.
//!
//! [`run`] spawns one OS thread per rank and hands each a [`Comm`]. Ranks
//! exchange messages over unbounded std mpsc channels — every message
//! hands the sender's value over, billed at its encoded size or at the
//! size its sender charges (eager, non-blocking sends — no rendezvous
//! deadlocks), matched by `(source, tag)` with FIFO order per pair,
//! which mirrors MPI's matching rules for a single communicator.
//!
//! Virtual time: the sender stamps its clock into the envelope; the
//! receiver advances to `max(local + recv_overhead, stamp + latency +
//! bytes × sec_per_byte)`. Computation is charged explicitly through
//! [`Comm::compute`]. The final per-rank clocks (and the makespan, their
//! maximum) are deterministic regardless of how the host schedules the
//! threads.
//!
//! Failure behavior: a receive that can never complete (its source
//! exited, a peer's closure panicked, or a self-recv with nothing
//! buffered) produces a structured [`CommError`] naming the blocked rank,
//! the expected `(src, tag)`, and the pending-queue contents — via
//! [`Comm::try_recv`], or as the panic message of the infallible
//! wrappers. With [`TraceConfig`] enabled (see
//! [`run_instrumented`]), each rank records into a trace ring it owns,
//! and those errors also carry the ring's last events.
//!
//! Reliability and rank death: with
//! [`ReliabilityConfig::enabled`](crate::reliable::ReliabilityConfig)
//! every frame carries a sequence number and the receiver restores
//! per-source order, suppresses duplicates, and retransmits drops (see
//! [`crate::reliable`]) — injected message faults become invisible to
//! callers. A fault layer's kill schedule takes effect at phase
//! boundaries ([`Comm::boundary`]): the victim sees
//! [`PhaseControl::SelfKilled`], survivors see
//! [`PhaseControl::PeersDied`], shrink the world with
//! [`Comm::shrink_world`], and continue on dense *logical* ranks.
//!
//! Exit notices: when a rank's closure ends it sends each peer one
//! notice saying how — returned, panicked, or killed with its death
//! record (clock, phase, boundary). Channels are FIFO per sender, so the
//! notice lands behind every frame its sender ever sent: a receive whose
//! source's notice is in, with nothing matching buffered, ends at once
//! ([`CommError::RankDead`] for a killed source,
//! [`CommError::PeersDisconnected`] otherwise), and a panicked notice
//! ends any receive that would block. Notices are never counted or
//! traced. Nothing here waits on a timer.

mod account;
mod collectives;
mod control;
mod transport;
mod world;

pub(crate) use account::wall_makespan;
pub use account::{RankStats, WallStats};
pub use world::{run, run_instrumented, RunReport};

use crate::budget::BudgetBreach;
use crate::checkpoint::CheckpointStore;
use crate::error::CommError;
use crate::fault::FaultLayer;
use crate::machine::{ClockMode, MachineModel};
use crate::reliable::ReliabilityConfig;
use crate::trace::{self, RankTrace, TraceConfig, TraceEvent, TraceEventKind, TraceRing};
use crate::wire::{Wire, WireError};
use account::Account;
use control::Control;
use pgr_obs::{MetricsConfig, MetricsShard, Phase, RankMetrics};
use std::sync::Arc;
use std::time::Instant;
use transport::{Transport, Value};

/// How many recent trace events a [`CommError`] carries.
const ERR_TRACE_TAIL: usize = 16;

/// Tags at or above this value are reserved for collectives.
pub const COLLECTIVE_TAG_BASE: u32 = 0x8000_0000;

/// Metric counting microseconds receives sat blocked past their own
/// overhead — the recv-side wait the causal profiler attributes to the
/// sender. Recorded inside every receive's charge, so it lands in the
/// open phase window and per-phase wait seconds fall out of the
/// ordinary metrics dump.
pub const RECV_WAIT_MICROS: &str = "mpi.recv_wait_micros";

/// What a typed frame can carry: a value the sending rank's thread can
/// hand to the receiving one, which gets the sender's copy as is (or a
/// clone, where the sender keeps its own). Every plain-data type is one.
pub trait Payload: Clone + Send + Sync + 'static {}

impl<T: Clone + Send + Sync + 'static> Payload for T {}

/// A rank's handle to the communicator: the facade over three layers
/// that cannot see each other's state — the `Transport` moves frames,
/// the `Account` keeps the clock and the counters, the `Control` plane
/// knows the world, the kill schedule, the budget and the checkpoints —
/// with the rank's trace ring and metric shard wired through them from
/// here.
pub struct Comm {
    transport: Transport,
    account: Account,
    control: Control,
    /// This rank's event ring — owned outright like the metric shard;
    /// `None` on the untraced (allocation-free) path.
    trace: Option<TraceRing>,
    /// This rank's metric shard — owned outright (uncontended), records
    /// nothing and allocates nothing when disabled.
    metrics: MetricsShard,
    /// Collectives issued so far (keeps their internal tags apart).
    coll_seq: u32,
}

/// Outcome of a phase boundary ([`Comm::boundary`]): the fault layer's
/// kill schedule, then the budget agreement.
#[derive(Debug, Clone, PartialEq)]
pub enum PhaseControl {
    /// Everyone scheduled to be here still is.
    Continue,
    /// These peers (physical rank ids) died at this boundary. The
    /// caller should [`Comm::shrink_world`] them out, redistribute their
    /// work, and continue with the survivors.
    PeersDied(Vec<usize>),
    /// This rank itself is scheduled dead: unwind quietly without
    /// touching the communicator again.
    SelfKilled,
    /// The budget agreement surfaced a latched [`BudgetBreach`]: every
    /// rank sees this identical payload — the report of the lowest
    /// breaching logical rank, `rank` — so stopping here is
    /// SPMD-consistent by construction.
    BudgetExceeded { rank: usize, breach: BudgetBreach },
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

    /// Metrics only (no event ring).
    pub fn metered() -> Self {
        InstrumentConfig {
            metrics: MetricsConfig::on(),
            ..InstrumentConfig::default()
        }
    }
}

fn assert_user_tag(tag: u32) {
    assert!(
        tag < COLLECTIVE_TAG_BASE,
        "user tags must be < {COLLECTIVE_TAG_BASE:#x}"
    );
}

impl Comm {
    /// A single-rank communicator without any threads — for serial runs
    /// that still charge virtual time (the baseline of every speedup).
    pub fn solo(machine: MachineModel) -> Self {
        Comm::solo_with(machine, MetricsConfig::off(), ClockMode::default())
    }

    /// [`Comm::solo`] with metric collection and the [`ClockMode`]
    /// configured: under [`ClockMode::Wall`] the epoch starts here and
    /// the rank's stats report host seconds alongside the virtual
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
    /// per-rank parts of `instr` applied (its trace ring and metric
    /// shard among them) and nothing shared attached — no channels or
    /// checkpoint store.
    /// That is already a complete solo communicator (see
    /// [`Transport::new`]); [`run_instrumented`] attaches the shared
    /// parts.
    fn unconnected(
        rank: usize,
        size: usize,
        machine: MachineModel,
        instr: &InstrumentConfig,
        wall_epoch: Instant,
    ) -> Self {
        Comm {
            transport: Transport::new(rank, size, instr.fault.clone(), instr.reliability),
            account: Account::new(size, machine, instr.clock, wall_epoch),
            control: Control::new(rank, size, instr.fault.clone()),
            trace: instr.trace.enabled.then(TraceRing::default),
            metrics: MetricsShard::new(instr.metrics).timed(instr.clock == ClockMode::Wall),
            coll_seq: 0,
        }
    }

    // ----- tracing -----

    fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    fn record(&mut self, kind: TraceEventKind, t0: f64, t1: f64) {
        let evicted = match &mut self.trace {
            Some(ring) => ring.record(TraceEvent { kind, t0, t1 }),
            None => false,
        };
        if evicted {
            // Surfaced as a counter so exporters and the profiler can
            // tell a truncated stream from a complete one; incremented
            // here (not at export) so it lands in the phase window that
            // overflowed the ring.
            self.metrics.add(trace::TRACE_DROPPED, 1);
        }
    }

    /// Close this rank's ring into its [`RankTrace`], ending at the
    /// current clock; `None` when tracing is off.
    fn take_trace(&mut self) -> Option<RankTrace> {
        let ring = self.trace.take()?;
        Some(ring.finish(self.physical_rank(), self.now()))
    }

    /// Record an instantaneous annotation on this rank's trace (no-op
    /// when tracing is off; does not affect virtual time or stats).
    pub fn trace_mark(&mut self, name: &'static str) {
        self.record(TraceEventKind::Mark { name }, self.now(), self.now());
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

    /// Start a sub-phase timer of the router (see
    /// [`MetricsShard::start_timer`]): `None`, with no clock read and no
    /// allocation, unless metrics are on under a wall clock.
    pub fn start_timer(&self) -> Option<Instant> {
        self.metrics.start_timer()
    }

    /// Charge the host time since `start` to the timer `name` of the open
    /// phase window (see [`MetricsShard::stop_timer`]).
    pub fn stop_timer(&mut self, name: &'static str, start: Option<Instant>) {
        self.metrics.stop_timer(name, start);
    }

    /// Snapshot this rank's metrics (sorted, detached from the shard).
    pub(crate) fn metrics_snapshot(&self) -> RankMetrics {
        self.metrics.snapshot(self.physical_rank())
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
        self.account.mark_phase(name);
        self.record(TraceEventKind::Phase { name }, self.now(), self.now());
    }

    // ----- point to point -----

    /// The one send entry — typed sends, raw sends, modeled transfers
    /// and the collectives' internal traffic all come through here:
    /// check the destination, charge the sender, hand the frame to the
    /// transport.
    fn post(&mut self, dst: usize, tag: u32, value: Value) {
        assert!(dst < self.size(), "send to rank {dst} of {}", self.size());
        let dst = self.world()[dst];
        let bytes = value.bytes;
        let t0 = self.now();
        let stamp = self.account.charge_send(dst, bytes);
        let seq = self
            .transport
            .send(dst, tag, stamp, value, &mut self.metrics);
        if self.tracing() {
            let kind = TraceEventKind::Send {
                dst,
                tag,
                bytes,
                seq,
            };
            self.record(kind, t0, self.now());
        }
    }

    /// Send raw bytes to logical rank `dst` with `tag`, charged at their
    /// length. Eager and non-blocking. Receive them with
    /// [`Comm::recv_bytes`].
    pub fn send_bytes(&mut self, dst: usize, tag: u32, payload: Vec<u8>) {
        assert_user_tag(tag);
        let bytes = payload.len();
        self.post(dst, tag, Value::new(payload, bytes, true));
    }

    /// Send a typed message: a copy of `value` is handed to the
    /// receiver, billed at the bytes it encodes to.
    pub fn send<T: Wire + Payload>(&mut self, dst: usize, tag: u32, value: &T) {
        assert_user_tag(tag);
        let bytes = value.wire_len();
        self.post(dst, tag, Value::new(value.clone(), bytes, false));
    }

    /// Model the transfer of `bytes` bytes to logical rank `dst` without
    /// materialising them: for data the receiver already holds (the
    /// ranks share the host's memory) whose *cost* the simulated machine
    /// must still pay. Clocks, counters, traces, the comm matrix, the
    /// fault hook and the reliable transport all see a `bytes`-long
    /// frame, which holds `()`. Receive it with [`Comm::recv_modeled`].
    pub fn send_modeled(&mut self, dst: usize, tag: u32, bytes: usize) {
        assert_user_tag(tag);
        self.post(dst, tag, Value::new((), bytes, true));
    }

    /// Match the next frame from logical rank `src` with `tag` (FIFO per
    /// `(src, tag)` pair), charge its delivery and hand over its value
    /// with the size it was billed at. A frame that holds another type,
    /// or is charged where the caller asked for one billed at its
    /// encoding (or the reverse), is a sender/receiver mismatch, never
    /// a made-up value: it fails to decode ([`WireError::WrongType`]).
    fn accept<T: Payload>(
        &mut self,
        src: usize,
        tag: u32,
        charged: bool,
    ) -> Result<(T, usize), CommError> {
        assert!(src < self.size(), "recv from rank {src} of {}", self.size());
        let from = self.world()[src];
        let env = self.transport.recv(from, tag, &mut self.metrics);
        let env = env.map_err(|e| match &self.trace {
            Some(ring) => e.with_recent(ring.tail(ERR_TRACE_TAIL)),
            None => e,
        })?;
        let bytes = env.value.bytes;
        let t0 = self.now();
        let wait = self.account.charge_recv(env.stamp, bytes);
        // Metrics only; the clock charge is the account's.
        if wait > 0.0 {
            self.metrics.add(RECV_WAIT_MICROS, (wait * 1e6) as u64);
        }
        if self.tracing() {
            let kind = TraceEventKind::Recv {
                src: env.src as usize,
                tag: env.tag,
                bytes,
                seq: env.seq,
                stamp: env.stamp,
            };
            self.record(kind, t0, self.now());
        }
        let rank = self.physical_rank();
        let wrong = |expected, found| CommError::Decode {
            rank,
            src,
            tag,
            error: WireError::WrongType { expected, found },
        };
        if env.value.charged != charged {
            let name = |charged| match charged {
                true => "a charged value",
                false => "a value billed at its encoding",
            };
            return Err(wrong(name(charged), name(!charged)));
        }
        let value = env.value.take();
        let value = value.map_err(|found| wrong(std::any::type_name::<T>(), found))?;
        Ok((value, bytes))
    }

    /// Blocking receive of the next [`Comm::send_bytes`] frame from
    /// `src` with `tag`. Returns the payload; panics with the full
    /// [`CommError`] diagnosis on a pattern that can never complete, a
    /// dead peer, a corrupt frame or a frame of another kind.
    pub fn recv_bytes(&mut self, src: usize, tag: u32) -> Vec<u8> {
        let got = self.accept(src, tag, true);
        got.unwrap_or_else(|e| panic!("{e}")).0
    }

    /// Blocking receive of the next [`Comm::send_modeled`] transfer from
    /// `src` with `tag`: returns the modeled size, panicking with the
    /// [`CommError`] diagnosis like [`Comm::recv_bytes`].
    pub fn recv_modeled(&mut self, src: usize, tag: u32) -> usize {
        let got = self.accept::<()>(src, tag, true);
        got.unwrap_or_else(|e| panic!("{e}")).1
    }

    /// Blocking typed receive with structured errors: a frame that does
    /// not hold a `T` and unsatisfiable patterns both surface as
    /// [`CommError`].
    pub fn try_recv<T: Wire + Payload>(&mut self, src: usize, tag: u32) -> Result<T, CommError> {
        Ok(self.accept(src, tag, false)?.0)
    }

    /// Blocking typed receive. Panics on a frame that holds no `T` (a type
    /// mismatch between sender and receiver is a programming error, not
    /// input) and
    /// on any [`CommError`] — always with the structured diagnosis, never
    /// a bare message. Use [`Comm::try_recv`] to handle the error instead.
    pub fn recv<T: Wire + Payload>(&mut self, src: usize, tag: u32) -> T {
        self.try_recv(src, tag).unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::transport::{BLOCKED_TIMER, PARKED_TIMER};
    use super::*;
    use crate::checkpoint::Snapshot;

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
        let sent: u64 = report.stats.iter().map(|s| s.msgs_sent).sum();
        assert_eq!(sent, 2);
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
    fn reduce_sums_all_sizes() {
        for &size in &SIZES {
            let report = run(size, MachineModel::ideal(), |c| {
                c.reduce(c.rank() as u64 + 1, |a, b| a + b)
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
        let report = run(4, MachineModel::ideal(), |c| c.gather(c.rank() as u32 * 10));
        assert_eq!(report.results[0], Some(vec![0, 10, 20, 30]));
        assert!(report.results[1..].iter().all(Option::is_none));
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
        let expect = m.send_overhead + m.latency + (n + 4) as f64 * m.sec_per_byte;
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
        c.barrier();
        assert_eq!(c.gather(1u32), Some(vec![1]));
        let a2a = c.alltoall(vec![vec![9u8]]);
        assert_eq!(a2a, vec![vec![9]]);
    }

    #[test]
    fn solo_recv_reports_unsatisfiable_not_hung_up() {
        let mut c = Comm::solo(MachineModel::ideal());
        let err = c.try_recv::<u32>(0, 5).expect_err("nothing to receive");
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
        assert!(c.try_recv::<u32>(0, 4).is_err());
    }

    #[test]
    fn self_recv_without_send_is_immediate_error_in_parallel_run() {
        let report = run(2, MachineModel::ideal(), |c| {
            if c.rank() == 0 {
                // Receive from *self* with nothing buffered: flagged
                // immediately, not after peers exit.
                c.try_recv::<u32>(0, 1).err().map(|e| e.to_string())
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
    fn wall_clocked_ranks_time_their_frames_per_phase() {
        let body = |c: &mut Comm| {
            c.phase_mark(Phase::Coarse);
            if c.rank() == 0 {
                c.send(1, 1, &vec![7u64; 64]);
            } else {
                assert_eq!(c.recv::<Vec<u64>>(0, 1).len(), 64);
            }
            c.phase_mark(Phase::Connect);
            c.allreduce(c.rank() as u64, |a, b| a + b)
        };
        let timers = |metrics: MetricsConfig, clock: ClockMode| {
            let instr = InstrumentConfig {
                metrics,
                clock,
                ..InstrumentConfig::off()
            };
            let (report, ..) = run_instrumented(2, MachineModel::ideal(), instr, body);
            let wall = report.stats.iter().map(|s| s.wall.clone());
            let timers = wall.map(|w| w.map(|w| w.timers));
            timers.collect::<Vec<_>>()
        };
        let calls = |timers: &[(&str, &str, pgr_obs::Timer)], phase: &str, name: &str| {
            let hit = timers.iter().find(|&&(p, n, _)| (p, n) == (phase, name));
            hit.map_or(0, |t| t.2.calls)
        };
        let measured = timers(MetricsConfig::on(), ClockMode::Wall);
        let (sender, receiver) = (
            measured[0].as_ref().expect("rank 0 measured"),
            measured[1].as_ref().expect("rank 1 measured"),
        );
        // Nothing encodes or checksums a frame, so nothing times it: the
        // receives' waits are the only transport timers.
        for timers in [sender, receiver] {
            assert!(timers
                .iter()
                .all(|t| [BLOCKED_TIMER, PARKED_TIMER].contains(&t.1)));
        }
        assert!(
            calls(receiver, "coarse", BLOCKED_TIMER) >= 1,
            "{receiver:?}"
        );
        // A park is a part of a blocked receive: never more of them, in
        // any phase, on either rank.
        for timers in [sender, receiver] {
            for phase in ["coarse", "connect"] {
                let parks = calls(timers, phase, PARKED_TIMER);
                assert!(parks <= calls(timers, phase, BLOCKED_TIMER), "{timers:?}");
            }
        }
        // Metrics off, or a virtual clock: nothing times anything.
        let unmetered = timers(MetricsConfig::off(), ClockMode::Wall);
        assert!(unmetered
            .iter()
            .all(|t| t.as_ref().is_some_and(Vec::is_empty)));
        let virtual_ = timers(MetricsConfig::on(), ClockMode::Virtual);
        assert!(virtual_.iter().all(Option::is_none));
    }

    #[test]
    fn wall_clocked_solo_reports_wall_stats() {
        let mut c = Comm::solo_with(
            MachineModel::sparc_center_1000(),
            MetricsConfig::off(),
            ClockMode::Wall,
        );
        assert_eq!(c.account.clock_mode, ClockMode::Wall);
        c.phase_mark(Phase::Setup);
        c.compute(1_000);
        let s = c.stats();
        let ws = s.wall.expect("solo wall stats");
        assert_eq!(ws.phases.len(), 1);
        assert!(ws.time >= ws.phases[0]);
        // The virtual account is still live underneath.
        assert!(s.time > 0.0);

        let plain = Comm::solo(MachineModel::sparc_center_1000());
        assert_eq!(plain.account.clock_mode, ClockMode::Virtual);
        assert!(plain.stats().wall.is_none());
    }
    #[test]
    #[should_panic(expected = "send to rank 3 of 2")]
    fn typed_send_to_out_of_range_rank_is_a_structured_panic() {
        run(2, MachineModel::ideal(), |c| c.send(3, 1, &0u32));
    }

    #[test]
    #[should_panic(expected = "send to rank 1 of 1")]
    fn raw_send_to_out_of_range_rank_is_a_structured_panic() {
        Comm::solo(MachineModel::ideal()).send_bytes(1, 1, Vec::new());
    }

    /// A rank scheduled to die crossing its second boundary: one rank is
    /// a whole world, so its own deposit completes the boundary and the
    /// store can be read back without waiting on anyone.
    fn victim_world(store: &Arc<CheckpointStore>) -> InstrumentConfig {
        InstrumentConfig {
            fault: Some(Arc::new(crate::ChaosLayer::new(crate::ChaosConfig {
                kills: vec![(0, 1)],
                ..crate::ChaosConfig::messages_only(1)
            }))),
            checkpoints: Some(store.clone()),
            ..InstrumentConfig::off()
        }
    }

    #[test]
    fn victim_has_deposited_the_boundary_it_dies_entering() {
        let store = Arc::new(CheckpointStore::new());
        let report = run_instrumented(1, MachineModel::ideal(), victim_world(&store), |c| {
            // The first boundary carries no state: crossed, not deposited.
            let first = c.boundary(Phase::Setup, || panic!("boundary 0 never snapshots"));
            assert_eq!(first, PhaseControl::Continue);
            assert_eq!(store.held(), 0);
            let died = c.boundary(Phase::Steiner, || Some(Snapshot::new(vec![7, 7, 7])));
            // Whatever the victim would do next, its deposit is already
            // in the store — by the time the caller can see SelfKilled.
            let deposited = store.fetch(0, Phase::Steiner.index());
            (died, deposited.map(|d| d[0].get::<Vec<i32>>().cloned()))
        });
        let (died, deposited) = report.0.results.into_iter().next().expect("one rank");
        assert_eq!(died, PhaseControl::SelfKilled);
        assert_eq!(deposited, Some(Some(vec![7, 7, 7])));
    }

    #[test]
    fn shrink_world_votes_before_the_attempt_is_closed() {
        // Rank 2 of 3 dies entering coarse; both survivors deposited a
        // portable steiner snapshot in the failed attempt, so they agree
        // to resume there and get all three payloads back — including
        // the victim's, in the failed world's rank order.
        let store = Arc::new(CheckpointStore::new());
        let instr = InstrumentConfig {
            fault: Some(Arc::new(crate::ChaosLayer::new(crate::ChaosConfig {
                kills: vec![(2, 2)],
                ..crate::ChaosConfig::messages_only(1)
            }))),
            checkpoints: Some(store),
            ..InstrumentConfig::off()
        };
        let report = run_instrumented(3, MachineModel::ideal(), instr, |c| {
            let me = c.rank() as u8;
            assert_eq!(c.boundary(Phase::Setup, || None), PhaseControl::Continue);
            assert_eq!(
                c.boundary(Phase::Steiner, || Some(Snapshot::new(vec![me]))),
                PhaseControl::Continue
            );
            match c.boundary(Phase::Coarse, || None) {
                PhaseControl::SelfKilled => None,
                PhaseControl::PeersDied(dead) => {
                    assert_eq!(dead, vec![2]);
                    let resume = c.shrink_world(&dead, Phase::Coarse);
                    assert_eq!(c.size(), 2);
                    resume.map(|(from, snapshots)| {
                        let values = snapshots.iter().map(|s| s.get::<Vec<u8>>().cloned());
                        (from, values.collect::<Option<Vec<_>>>())
                    })
                }
                other => panic!("rank 2 dies here, got {other:?}"),
            }
        });
        let expect = Some((
            Phase::Steiner.index(),
            Some(vec![vec![0], vec![1], vec![2]]),
        ));
        assert_eq!(report.0.results, vec![expect.clone(), expect, None]);
    }
}
