//! Fault-injection layer: injected message drops and delays are
//! observable through the structured diagnostics and the metrics
//! shards.

use pgr_mpi::fault::{FAULTS_DELAYED, FAULTS_DROPPED};
use pgr_mpi::{
    run, run_instrumented, CommError, FaultAction, InstrumentConfig, MachineModel, MetricsConfig,
    MsgCtx, TraceConfig, WireError,
};
use std::sync::Arc;

const DATA: u32 = 7;

/// A dropped message never reaches the receiver: once the sender has
/// exited, the blocked receive reports a structured
/// `CommError::PeersDisconnected`, and the sender's metrics count the
/// injected drop.
#[test]
fn dropped_message_is_seen_by_exit_notice_and_metrics() {
    let instr = InstrumentConfig {
        metrics: MetricsConfig::on(),
        fault: Some(Arc::new(|m: &MsgCtx| match (m.src, m.dst, m.tag) {
            (1, 0, DATA) => FaultAction::Drop,
            _ => FaultAction::Deliver,
        })),
        ..InstrumentConfig::off()
    };
    let (report, _traces, metrics) = run_instrumented(2, MachineModel::ideal(), instr, |comm| {
        if comm.rank() == 0 {
            // The payload never arrives: the fault layer ate it.
            let err = comm.try_recv::<Vec<u8>>(1, DATA);
            Some(err.expect_err("dropped message cannot arrive"))
        } else {
            comm.send_bytes(0, DATA, vec![42; 64]);
            None
        }
    });

    let err = report.results[0].as_ref().expect("rank 0 reports");
    match err {
        CommError::PeersDisconnected {
            rank: 0,
            src: 1,
            tag: DATA,
            pending,
            ..
        } => assert!(pending.is_empty(), "nothing arrived: {err}"),
        other => panic!("{other:?}"),
    }
    let msg = err.to_string();
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
        fault: Some(Arc::new(|m: &MsgCtx| match m.tag {
            DATA => FaultAction::Delay(EXTRA),
            _ => FaultAction::Deliver,
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

/// A receive matching a modeled transfer is a sender/receiver mismatch
/// with a diagnosis — never a zero-length payload handed to the caller,
/// even when it asks for the `()` the transfer holds but not charged.
#[test]
fn payload_receive_matching_a_modeled_transfer_is_a_structured_error() {
    let report = run(2, MachineModel::ideal(), |comm| {
        if comm.rank() == 0 {
            comm.send_modeled(1, DATA, 4096);
            comm.send_modeled(1, DATA, 4096);
            None
        } else {
            let raw = comm
                .try_recv::<Vec<u8>>(0, DATA)
                .expect_err("no payload exists");
            let typed = comm
                .try_recv::<()>(0, DATA)
                .expect_err("nor an uncharged value");
            Some((raw, typed))
        }
    });
    let (raw, typed) = report.results[1].as_ref().expect("rank 1 reports");
    for err in [raw, typed] {
        assert!(
            matches!(
                err,
                CommError::Decode {
                    rank: 1,
                    src: 0,
                    tag: DATA,
                    error: WireError::WrongType { .. },
                }
            ),
            "{err:?}"
        );
        let msg = err.to_string();
        for part in ["rank 1", "src=0", "tag=7", "a charged value"] {
            assert!(msg.contains(part), "diagnosis lacks {part:?}: {msg}");
        }
    }
}

/// The other direction: a receive of a modeled transfer matching a real
/// frame reports the frame it found instead of inventing a size for it.
#[test]
fn modeled_receive_matching_a_real_frame_is_a_structured_error() {
    let report = run(2, MachineModel::ideal(), |comm| {
        if comm.rank() == 0 {
            comm.send_bytes(1, DATA, vec![5; 48]);
            None
        } else {
            Some(comm.try_recv::<()>(0, DATA).expect_err("a real frame"))
        }
    });
    let err = report.results[1].as_ref().expect("rank 1 reports");
    assert!(
        matches!(
            err,
            CommError::Decode {
                rank: 1,
                src: 0,
                tag: DATA,
                error: WireError::WrongType { .. },
            }
        ),
        "{err:?}"
    );
    let msg = err.to_string();
    for part in ["rank 1", "src=0", "tag=7", "a charged value"] {
        assert!(msg.contains(part), "diagnosis lacks {part:?}: {msg}");
    }
}
