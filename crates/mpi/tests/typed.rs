//! A typed frame hands the sender's value over instead of its encoding,
//! and the fault layer and the reliable transport treat it exactly as
//! the byte frame of that encoding: the same exchange, once through
//! `send`/`try_recv` and once through `send_bytes`/`recv_bytes` of the
//! encoded values, ends the same way — the same values delivered,
//! the same errors at the same receives — with the same stats and the
//! same transport counters, under corruption, duplication and reordering,
//! with reliability on and off.

use pgr_mpi::fault::{FAULTS_CORRUPTED, FAULTS_DUPLICATED, FAULTS_REORDERED};
use pgr_mpi::{
    reliable, run_instrumented, Comm, CommError, FaultAction, InstrumentConfig, MachineModel,
    MetricsConfig, MsgCtx, Phase, RankMetrics, RankStats, ReliabilityConfig, Wire,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const DATA: u32 = 7;

/// What rank 0 sends, in order: empty, short and long values.
fn values() -> Vec<Vec<u64>> {
    vec![Vec::new(), vec![1, 2], (10..300).collect()]
}

/// What one receive ended in: the value, or the name of the error.
type Outcome = Result<Vec<u64>, &'static str>;

fn outcome(got: Result<Vec<u64>, CommError>) -> Outcome {
    got.map_err(|e| match e {
        CommError::Corrupt {
            src: 0,
            dst: 1,
            tag: DATA,
            ..
        } => "corrupt",
        CommError::PeersDisconnected { .. } => "disconnected",
        other => panic!("unexpected {other}"),
    })
}

/// The outcome a raw receive ends in: `recv_bytes` has no fallible twin,
/// so its structured panic, caught, names the error.
fn raw_outcome(comm: &mut Comm) -> Outcome {
    match catch_unwind(AssertUnwindSafe(|| comm.recv_bytes(0, DATA))) {
        Ok(bytes) => Ok(Vec::from_bytes(&bytes).expect("a clean frame decodes")),
        Err(panic) => {
            let msg = panic.downcast_ref::<String>().expect("a CommError display");
            let corrupt = CommError::Corrupt {
                src: 0,
                dst: 1,
                tag: DATA,
            };
            if *msg == corrupt.to_string() {
                Err("corrupt")
            } else if msg.contains("its source has exited") {
                Err("disconnected")
            } else {
                panic!("unexpected {msg}")
            }
        }
    }
}

/// Rank 0 sends every value, typed or as its encoding; rank 1 makes
/// `receives` receives and reports how each ended.
fn exchange(
    typed: bool,
    fault: impl Fn(&MsgCtx) -> FaultAction + Send + Sync + 'static,
    reliability: ReliabilityConfig,
    receives: usize,
) -> (Vec<Outcome>, Vec<RankStats>, Vec<RankMetrics>) {
    let instr = InstrumentConfig {
        metrics: MetricsConfig::on(),
        fault: Some(Arc::new(fault)),
        reliability,
        ..InstrumentConfig::off()
    };
    let (report, _, metrics) =
        run_instrumented(2, MachineModel::ideal(), instr, |comm: &mut Comm| {
            comm.phase_mark(Phase::Coarse);
            if comm.rank() == 0 {
                for v in values() {
                    if typed {
                        comm.send(1, DATA, &v);
                    } else {
                        comm.send_bytes(1, DATA, v.to_bytes());
                    }
                }
                return Vec::new();
            }
            (0..receives)
                .map(|_| match typed {
                    true => outcome(comm.try_recv::<Vec<u64>>(0, DATA)),
                    false => raw_outcome(comm),
                })
                .collect()
        });
    let outcomes = report.results.into_iter().nth(1).expect("rank 1");
    (outcomes, report.stats, metrics)
}

/// Runs the exchange both ways, checks they agree in everything, and
/// returns the outcomes and rank 0's and rank 1's metrics.
fn both_ways(
    fault: impl Fn(&MsgCtx) -> FaultAction + Clone + Send + Sync + 'static,
    reliability: ReliabilityConfig,
    receives: usize,
) -> (Vec<Outcome>, Vec<RankMetrics>) {
    let (typed, typed_stats, typed_metrics) = exchange(true, fault.clone(), reliability, receives);
    let (bytes, bytes_stats, bytes_metrics) = exchange(false, fault, reliability, receives);
    assert_eq!(typed, bytes, "outcomes");
    assert_eq!(typed_stats, bytes_stats, "virtual account, bytes billed");
    assert_eq!(typed_metrics, bytes_metrics, "transport counters");
    (typed, typed_metrics)
}

fn counter(metrics: &RankMetrics, name: &str) -> u64 {
    metrics.counter(name).unwrap_or(0)
}

fn on_second(action: FaultAction) -> impl Fn(&MsgCtx) -> FaultAction + Clone + Send + Sync {
    move |ctx: &MsgCtx| match (ctx.seq, ctx.attempt) {
        (1, 0) => action,
        _ => FaultAction::Deliver,
    }
}

#[test]
fn corrupted_frame_without_reliability_is_corrupt_and_never_delivered() {
    let (got, metrics) = both_ways(on_second(FaultAction::Corrupt), ReliabilityConfig::off(), 3);
    let v = values();
    assert_eq!(
        got,
        vec![Ok(v[0].clone()), Err("corrupt"), Ok(v[2].clone())]
    );
    assert_eq!(counter(&metrics[0], FAULTS_CORRUPTED), 1);
}

#[test]
fn corrupted_frame_with_reliability_is_retransmitted_and_delivered_once() {
    let (got, metrics) = both_ways(on_second(FaultAction::Corrupt), ReliabilityConfig::on(), 4);
    let v = values();
    let mut want: Vec<Outcome> = v.into_iter().map(Ok).collect();
    want.push(Err("disconnected"));
    assert_eq!(got, want);
    assert_eq!(counter(&metrics[0], FAULTS_CORRUPTED), 1);
    assert_eq!(counter(&metrics[0], reliable::CORRUPT_DROPPED), 1);
    assert_eq!(counter(&metrics[0], reliable::RETRANSMITS), 1);
}

#[test]
fn duplicate_is_ingested_twice_raw_and_suppressed_reliably() {
    let dup = on_second(FaultAction::Duplicate);
    let v = values();
    let (raw, metrics) = both_ways(dup.clone(), ReliabilityConfig::off(), 4);
    let twice = [&v[0], &v[1], &v[1], &v[2]].map(|v| Ok(v.clone()));
    assert_eq!(raw, twice);
    assert_eq!(counter(&metrics[0], FAULTS_DUPLICATED), 1);

    let (reliable_run, metrics) = both_ways(dup, ReliabilityConfig::on(), 4);
    let mut once: Vec<Outcome> = v.into_iter().map(Ok).collect();
    once.push(Err("disconnected"));
    assert_eq!(reliable_run, once);
    assert_eq!(counter(&metrics[1], reliable::DUPLICATES_DROPPED), 1);
}

#[test]
fn reordered_frame_goes_through_the_holdback() {
    let hold_first = |ctx: &MsgCtx| match ctx.seq {
        0 => FaultAction::Reorder,
        _ => FaultAction::Deliver,
    };
    let v = values();
    let (raw, metrics) = both_ways(hold_first, ReliabilityConfig::off(), 3);
    // The second frame overtakes the held first one.
    let overtaken = [&v[1], &v[0], &v[2]].map(|v| Ok(v.clone()));
    assert_eq!(raw, overtaken);
    assert_eq!(counter(&metrics[0], FAULTS_REORDERED), 1);

    let (reliable_run, metrics) = both_ways(hold_first, ReliabilityConfig::on(), 3);
    let in_order: Vec<Outcome> = v.into_iter().map(Ok).collect();
    assert_eq!(reliable_run, in_order);
    assert_eq!(counter(&metrics[1], reliable::REORDER_BUFFERED), 1);
}
