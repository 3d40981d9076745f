//! Spawning a world: one OS thread per rank, each handed a [`Comm`]
//! wired to its peers, and the [`RunReport`] that comes back.

use super::account::{wall_makespan, RankStats};
use super::transport::Exit;
use super::{Comm, InstrumentConfig};
use crate::checkpoint::CheckpointStore;
use crate::machine::MachineModel;
use crate::trace::RankTrace;
use pgr_obs::RankMetrics;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Instant;

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
    /// shared epoch. `None` unless the run used [`ClockMode::Wall`](crate::ClockMode).
    pub fn wall_makespan(&self) -> Option<f64> {
        wall_makespan(&self.stats)
    }

    pub(crate) fn max_peak_mem(&self) -> u64 {
        self.stats.iter().map(|s| s.peak_mem).max().unwrap_or(0)
    }

    /// Whether every rank's modeled working set fit the machine's node
    /// memory (Table 5's Paragon feasibility check).
    pub fn fits_memory(&self) -> bool {
        self.machine.fits_in_node(self.max_peak_mem())
    }
}

/// Execute `f` as an SPMD program over `size` ranks on the given machine.
///
/// One OS thread per rank; returns every rank's result plus timing stats.
/// When a rank's closure ends it sends each peer an exit notice, so a
/// receive whose source has ended, with nothing matching buffered,
/// reports [`CommError::PeersDisconnected`](crate::CommError) (or
/// `RankDead` for a killed source) instead of waiting. A panic in any
/// rank propagates: its notice ends its peers' blocked receives the same
/// way, and the payload of the rank that panicked first is re-raised.
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
            let peers = txs
                .iter()
                .enumerate()
                .map(|(i, tx)| (i != rank).then(|| tx.clone()))
                .collect();
            comm.transport.connect(peers, rx);
            comm.control.connect(checkpoints.clone());
            comm
        })
        .collect();
    drop(txs);

    let f = &f;
    // The rank whose closure unwound first. It claims this before its
    // exit notices go out, so no panic they set off can claim it.
    let first_unwound = &AtomicUsize::new(usize::MAX);
    let mut outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .iter_mut()
            .map(|comm| {
                scope.spawn(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| f(comm)));
                    let exit = if result.is_err() {
                        let rank = comm.physical_rank();
                        let _ = first_unwound.compare_exchange(usize::MAX, rank, SeqCst, SeqCst);
                        Exit::Panicked
                    } else {
                        comm.control.death().map_or(Exit::Returned, Exit::Killed)
                    };
                    comm.transport.close(exit, &mut comm.metrics);
                    let trace = comm.take_trace();
                    result.map(|r| (r, comm.stats(), comm.metrics_snapshot(), trace))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| resume_unwind(e)))
            .collect()
    });
    // Re-raise the original payload, not one of the `PeersDisconnected`
    // panics it cascaded into, so a rank's diagnostic message (e.g. a
    // `CommError` display) survives to the caller verbatim.
    let first = first_unwound.load(SeqCst);
    if first < size {
        if let Err(payload) = outcomes.swap_remove(first) {
            resume_unwind(payload);
        }
    }

    let metrics_on = instr.metrics.enabled;
    let mut results = Vec::with_capacity(size);
    let mut stats = Vec::with_capacity(size);
    let mut metrics = Vec::with_capacity(if metrics_on { size } else { 0 });
    let mut traces = Vec::with_capacity(if instr.trace.enabled { size } else { 0 });
    for outcome in outcomes {
        let Ok((r, s, m, t)) = outcome else {
            unreachable!("no rank unwound")
        };
        results.push(r);
        stats.push(s);
        if metrics_on {
            metrics.push(m);
        }
        traces.extend(t);
    }
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
