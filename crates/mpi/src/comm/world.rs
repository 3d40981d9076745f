//! Spawning a world: one OS thread per rank, each handed a [`Comm`]
//! wired to its peers, and the [`RunReport`] that comes back.

use super::account::{wall_makespan, RankStats};
use super::{Comm, InstrumentConfig};
use crate::checkpoint::CheckpointStore;
use crate::failure::FailureDetector;
use crate::machine::MachineModel;
use crate::trace::{RankTrace, TraceHub};
use pgr_obs::RankMetrics;
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
            let peers = txs
                .iter()
                .enumerate()
                .map(|(i, tx)| (i != rank).then(|| tx.clone()))
                .collect();
            comm.trace = hub.clone();
            comm.transport
                .connect(peers, rx, failure.clone().filter(|_| kills_scheduled));
            comm.control.connect(failure.clone(), checkpoints.clone());
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
                    comm.transport.close(&mut comm.metrics);
                    if let Some(hub) = &comm.trace {
                        hub.set_final_time(comm.physical_rank(), comm.now());
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
