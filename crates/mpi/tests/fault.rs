//! Fault-injection layer: injected message drops and delays are
//! observable through the structured diagnostics (recv watchdog) and the
//! metrics shards.

use pgr_mpi::fault::{Matching, FAULTS_DELAYED, FAULTS_DROPPED};
use pgr_mpi::{
    run, run_instrumented, CommError, FaultAction, InstrumentConfig, MachineModel, MetricsConfig,
    MsgCtx, TraceConfig,
};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const DATA: u32 = 7;
const RELEASE: u32 = 8;

/// A dropped message stalls the receiver; the watchdog turns the stall
/// into a structured `CommError::Stalled`, and the sender's metrics
/// count the injected drop. Rank 1 stays alive (parked on a barrier) so
/// the stall is a genuine timeout, not a peer disconnect.
#[test]
fn dropped_message_is_seen_by_watchdog_and_metrics() {
    let instr = InstrumentConfig {
        trace: TraceConfig::with_watchdog(Duration::from_millis(200)),
        metrics: MetricsConfig::on(),
        fault: Some(Arc::new(Matching {
            src: Some(1),
            dst: Some(0),
            tag: Some(DATA),
            action: FaultAction::Drop,
        })),
        ..InstrumentConfig::off()
    };
    // Rank 1 waits for rank 0's verdict on this barrier, not in a
    // receive: both ranks arm the same real-time watchdog, and a rank 1
    // parked in `recv(RELEASE)` could stall first.
    let verdict = Barrier::new(2);
    let (report, _traces, metrics) = run_instrumented(2, MachineModel::ideal(), instr, |comm| {
        if comm.rank() == 0 {
            // The payload never arrives: the fault layer ate it.
            let err = comm.try_recv_bytes(1, DATA);
            // Unblock rank 1 so the run finishes cleanly.
            comm.send_bytes(1, RELEASE, vec![1]);
            verdict.wait();
            let err = err.expect_err("dropped message cannot arrive");
            let stalled = matches!(err, CommError::Stalled { .. });
            (stalled, err.to_string())
        } else {
            comm.send_bytes(0, DATA, vec![42; 64]);
            verdict.wait();
            let _ = comm.recv_bytes(0, RELEASE);
            (true, String::new())
        }
    });

    let (stalled, msg) = &report.results[0];
    assert!(stalled, "watchdog must report Stalled, got: {msg}");
    assert!(
        msg.contains("rank 0"),
        "diagnosis names the blocked rank: {msg}"
    );
    // The sender's shard counted the injected drop; the receiver's did not.
    assert_eq!(metrics[1].counter(FAULTS_DROPPED), Some(1));
    assert_eq!(metrics[0].counter(FAULTS_DROPPED), None);
    // Stats still count the send (the NIC accepted it before the network
    // lost it), so comm-volume accounting stays consistent.
    assert_eq!(
        report.stats[1].msgs_sent, 1,
        "rank 1 sent exactly the dropped message"
    );
}

/// A delayed message arrives intact but pushes the receiver's virtual
/// clock out by the injected latency, and the delay is counted.
#[test]
fn delayed_message_shifts_virtual_time_and_is_counted() {
    const EXTRA: f64 = 3.5;
    let body = |comm: &mut pgr_mpi::Comm| {
        if comm.rank() == 0 {
            let v = comm.recv_bytes(1, DATA);
            (v.len(), comm.now())
        } else {
            comm.send_bytes(0, DATA, vec![9; 128]);
            (0, comm.now())
        }
    };
    let baseline = run(2, MachineModel::ideal(), body);
    let instr = InstrumentConfig {
        trace: TraceConfig::off(),
        metrics: MetricsConfig::on(),
        fault: Some(Arc::new(Matching {
            src: None,
            dst: None,
            tag: Some(DATA),
            action: FaultAction::Delay(EXTRA),
        })),
        ..InstrumentConfig::off()
    };
    let (delayed, _, metrics) = run_instrumented(2, MachineModel::ideal(), instr, body);

    assert_eq!(delayed.results[0].0, 128, "payload survives the delay");
    let (t_base, t_delayed) = (baseline.results[0].1, delayed.results[0].1);
    assert!(
        (t_delayed - t_base - EXTRA).abs() < 1e-9,
        "receiver clock shifts by exactly the injected delay: {t_base} -> {t_delayed}"
    );
    assert_eq!(metrics[1].counter(FAULTS_DELAYED), Some(1));
}

/// Closure-based layers can target individual sends by sequence number,
/// and a run with a pass-through layer behaves exactly like an
/// uninstrumented one (deterministic virtual time preserved).
#[test]
fn passthrough_layer_preserves_virtual_time() {
    let body = |comm: &mut pgr_mpi::Comm| {
        comm.compute(1000 * (comm.rank() as u64 + 1));
        comm.allreduce(comm.rank() as u64, |a, b| a + b);
        comm.now()
    };
    let plain = run(4, MachineModel::sparc_center_1000(), body);
    let instr = InstrumentConfig {
        trace: TraceConfig::off(),
        metrics: MetricsConfig::on(),
        fault: Some(Arc::new(|_: &MsgCtx| FaultAction::Deliver)),
        ..InstrumentConfig::off()
    };
    let (hooked, _, metrics) = run_instrumented(4, MachineModel::sparc_center_1000(), instr, body);
    assert_eq!(plain.results, hooked.results);
    assert!(metrics
        .iter()
        .all(|m| m.counter(FAULTS_DROPPED).is_none() && m.counter(FAULTS_DELAYED).is_none()));
}

/// `recv_bytes` (and the typed `recv` on top of it) matching a modeled
/// transfer is a sender/receiver mismatch with a diagnosis — never a
/// zero-length payload handed to the caller.
#[test]
fn payload_receive_matching_a_modeled_transfer_is_a_structured_error() {
    let report = run(2, MachineModel::ideal(), |comm| {
        if comm.rank() == 0 {
            comm.send_modeled(1, DATA, 4096);
            comm.send_modeled(1, DATA, 4096);
            None
        } else {
            let raw = comm.try_recv_bytes(0, DATA).expect_err("no payload exists");
            let typed = comm.try_recv::<Vec<u8>>(0, DATA).expect_err("nor a value");
            Some((raw, typed))
        }
    });
    let (raw, typed) = report.results[1].as_ref().expect("rank 1 reports");
    for err in [raw, typed] {
        assert!(
            matches!(
                err,
                CommError::KindMismatch {
                    rank: 1,
                    src: 0,
                    tag: DATA,
                    modeled: true,
                    bytes: 4096,
                    wire_bytes: 8,
                }
            ),
            "{err:?}"
        );
        assert_eq!(err.rank(), 1);
        let msg = err.to_string();
        for part in ["rank 1", "src=0", "tag=7", "4096 B", "8 B", "recv_modeled"] {
            assert!(msg.contains(part), "diagnosis lacks {part:?}: {msg}");
        }
    }
}

/// The other direction: `recv_modeled` matching a real frame reports
/// the frame it found instead of inventing a size for it.
#[test]
fn modeled_receive_matching_a_real_frame_is_a_structured_error() {
    let report = run(2, MachineModel::ideal(), |comm| {
        if comm.rank() == 0 {
            comm.send_bytes(1, DATA, vec![5; 48]);
            None
        } else {
            Some(comm.try_recv_modeled(0, DATA).expect_err("a real frame"))
        }
    });
    let err = report.results[1].as_ref().expect("rank 1 reports");
    assert!(
        matches!(
            err,
            CommError::KindMismatch {
                rank: 1,
                src: 0,
                tag: DATA,
                modeled: false,
                bytes: 48,
                wire_bytes: 48,
            }
        ),
        "{err:?}"
    );
    let msg = err.to_string();
    for part in ["rank 1", "recv_modeled(src=0, tag=7)", "48 B", "recv_bytes"] {
        assert!(msg.contains(part), "diagnosis lacks {part:?}: {msg}");
    }
}
