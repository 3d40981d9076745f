//! The books of one rank: the virtual clock, host-time marks, op and
//! traffic counters, modeled memory, and the phase marks that become
//! [`RankStats`].
//!
//! Every `f64` that ends up in a report is summed here and nowhere
//! else, in one fixed operand order, which is what makes the virtual
//! account bit-reproducible across refactors of the layers around it.

use super::Comm;
use crate::machine::{ClockMode, MachineModel};
use crate::trace::{mark_spans, TraceEventKind};
use std::time::Instant;

/// Per-rank execution statistics, returned by [`run`](super::run).
#[derive(Debug, Clone, PartialEq)]
pub struct RankStats {
    pub rank: usize,
    /// Final virtual clock in seconds.
    pub time: f64,
    /// Abstract operations charged via [`Comm::compute`](super::Comm::compute).
    pub ops: u64,
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    /// Bytes sent to each destination rank (`bytes_to[dst]`), the rank's
    /// row of the communication matrix.
    pub bytes_to: Vec<u64>,
    /// High-water mark of modeled memory (bytes).
    pub peak_mem: u64,
    /// Named phase durations in virtual seconds, in execution order
    /// (from [`Comm::phase_enter`](super::Comm::phase_enter) /
    /// [`Comm::phase_mark`](super::Comm::phase_mark); the last phase
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

/// Real host makespan of `stats`: the slowest rank's wall seconds from
/// the shared epoch. `None` unless every rank carried a wall measurement
/// (and there is at least one rank).
pub(crate) fn wall_makespan(stats: &[RankStats]) -> Option<f64> {
    let times: Option<Vec<f64>> = stats.iter().map(|s| Some(s.wall.as_ref()?.time)).collect();
    times
        .filter(|ts| !ts.is_empty())
        .map(|ts| ts.into_iter().fold(0.0, f64::max))
}

pub(super) struct Account {
    machine: MachineModel,
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
    /// Indexed by physical destination rank.
    bytes_to: Vec<u64>,
    /// Modeled allocation; nothing releases it, so the total is the peak.
    pub(super) peak_mem: u64,
    phase_marks: Vec<(&'static str, f64)>,
}

impl Account {
    pub(super) fn new(
        size: usize,
        machine: MachineModel,
        clock_mode: ClockMode,
        wall_epoch: Instant,
    ) -> Self {
        Account {
            machine,
            clock: 0.0,
            clock_mode,
            wall_epoch,
            wall_marks: Vec::new(),
            ops: 0,
            msgs_sent: 0,
            bytes_sent: 0,
            bytes_to: vec![0; size],
            peak_mem: 0,
            phase_marks: Vec::new(),
        }
    }

    fn wall_now(&self) -> f64 {
        self.wall_epoch.elapsed().as_secs_f64()
    }

    /// Seconds on the *active* clock: the virtual account in
    /// [`ClockMode::Virtual`] (bit-deterministic), host seconds in
    /// [`ClockMode::Wall`] (best-effort).
    pub(super) fn active_now(&self) -> f64 {
        match self.clock_mode {
            ClockMode::Virtual => self.clock,
            ClockMode::Wall => self.wall_now(),
        }
    }

    /// Charge one outgoing message of `bytes` to physical rank `dst`:
    /// the sender pays only its overhead. Returns the stamp the frame
    /// carries (the clock after the overhead).
    pub(super) fn charge_send(&mut self, dst: usize, bytes: usize) -> f64 {
        self.clock += self.machine.send_overhead;
        self.msgs_sent += 1;
        self.bytes_sent += bytes as u64;
        self.bytes_to[dst] += bytes as u64;
        self.clock
    }

    /// Charge the delivery of a `bytes`-long frame stamped `stamp`. The
    /// wire can deliver no earlier than stamp + latency, and the
    /// receiver's link is then occupied for the payload's transfer time
    /// (LogGP's per-byte gap): back-to-back receives serialize at the
    /// receiver rather than arriving for free in parallel.
    ///
    /// Returns the recv-side wait: the interval between this rank being
    /// ready and the wire actually delivering — positive when the
    /// sender was the binding dependency.
    pub(super) fn charge_recv(&mut self, stamp: f64, bytes: usize) -> f64 {
        let ready = self.clock + self.machine.recv_overhead;
        let start = ready.max(stamp + self.machine.latency);
        self.clock = start + bytes as f64 * self.machine.sec_per_byte;
        start - ready
    }

    /// Stamp the start of phase `name` at the current virtual time (and
    /// host time in `Wall` mode).
    pub(super) fn mark_phase(&mut self, name: &'static str) {
        self.phase_marks.push((name, self.clock));
        if self.clock_mode == ClockMode::Wall {
            self.wall_marks.push(self.wall_now());
        }
    }

    fn stats(&self, rank: usize) -> RankStats {
        let (names, starts): (Vec<&'static str>, Vec<f64>) =
            self.phase_marks.iter().copied().unzip();
        let phases = names
            .into_iter()
            .zip(mark_spans(&starts, self.clock))
            .collect();
        let wall = (self.clock_mode == ClockMode::Wall).then(|| {
            let now = self.wall_now();
            WallStats {
                time: now,
                phases: mark_spans(&self.wall_marks, now),
            }
        });
        RankStats {
            rank,
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
}

impl Comm {
    /// Current virtual time in seconds (advances identically in both
    /// clock modes; never consulted by routing decisions).
    pub fn now(&self) -> f64 {
        self.account.clock
    }

    /// The run's clock strategy.
    pub fn clock_mode(&self) -> ClockMode {
        self.account.clock_mode
    }

    /// Charge `ops` abstract operations of computation.
    pub fn compute(&mut self, ops: u64) {
        let acct = &mut self.account;
        let t0 = acct.clock;
        acct.ops += ops;
        acct.clock += acct.machine.compute_time(ops);
        if self.tracing() {
            self.record(TraceEventKind::Compute { ops }, t0, self.now());
        }
    }

    /// Register `bytes` of modeled allocation (for the per-node memory
    /// gate).
    pub fn charge_alloc(&mut self, bytes: u64) {
        self.account.peak_mem += bytes;
    }

    pub fn peak_mem(&self) -> u64 {
        self.account.peak_mem
    }

    pub(super) fn stats(&self) -> RankStats {
        self.account.stats(self.physical_rank())
    }
}
