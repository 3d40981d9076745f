//! Seeded chaos harness for the reliable transport and the failure
//! protocol.
//!
//! The contract under test: with the reliability layer on, any
//! message-fault schedule (drops, delays, reorders, duplicates — no
//! kills) is *invisible* — results, per-rank stats, and the makespan are
//! bit-identical to the fault-free run, with the protocol's effort
//! showing up only in metrics. Kill schedules surface as
//! `PhaseControl`/`CommError::RankDead`, and survivors renumber
//! deterministically.

use pgr_mpi::fault::{
    FAULTS_CORRUPTED, FAULTS_DELAYED, FAULTS_DROPPED, FAULTS_DUPLICATED, FAULTS_REORDERED,
};
use pgr_mpi::reliable::{self, MAX_ATTEMPTS};
use pgr_mpi::{
    run, run_instrumented, ChaosConfig, ChaosLayer, Comm, CommError, FaultAction, InstrumentConfig,
    MachineModel, MetricsConfig, MsgCtx, Phase, PhaseControl, RankMetrics, ReliabilityConfig,
};
use std::sync::Arc;

const DATA: u32 = 3;
const BULK: u32 = 4;
const NEVER: u32 = 99;

/// A communication-heavy SPMD body: two p2p streams around a ring, the
/// full collective set, and some compute.
fn busy_body(comm: &mut Comm) -> (u64, u64) {
    let (rank, size) = (comm.rank(), comm.size());
    comm.phase_mark(Phase::Setup);
    let next = (rank + 1) % size;
    let prev = (rank + size - 1) % size;
    for i in 0..8u64 {
        comm.send(next, DATA, &(rank as u64 * 100 + i));
        comm.send(next, BULK, &vec![i as u8; 16 + i as usize]);
    }
    let mut acc = 0u64;
    for _ in 0..8 {
        acc += comm.recv::<u64>(prev, DATA);
        let v: Vec<u8> = comm.recv(prev, BULK);
        acc += v.len() as u64;
    }
    comm.compute(500 * (rank as u64 + 1));
    let sum = comm.allreduce(acc, |a, b| a + b);
    let g = comm.allgather(acc);
    let t: Vec<Vec<u32>> = comm.alltoall((0..size).map(|d| vec![(rank * 10 + d) as u32]).collect());
    let mix = sum + g.iter().sum::<u64>() + t.iter().flatten().map(|&x| u64::from(x)).sum::<u64>();
    (mix, comm.now().to_bits())
}

fn fault_count(metrics: &[RankMetrics], name: &'static str) -> u64 {
    metrics.iter().filter_map(|m| m.counter(name)).sum()
}

/// Every non-lossy (no-kill) randomized schedule is byte-invisible:
/// identical results, identical per-rank stats, identical makespan.
#[test]
fn non_lossy_chaos_is_bit_identical_to_clean_run() {
    let machine = MachineModel::sparc_center_1000();
    let clean = run(4, machine, busy_body);
    for seed in [1u64, 7, 42, 1997] {
        let instr = InstrumentConfig {
            metrics: MetricsConfig::on(),
            fault: Some(Arc::new(ChaosLayer::new(ChaosConfig::messages_only(seed)))),
            reliability: ReliabilityConfig::on(),
            ..InstrumentConfig::off()
        };
        let (chaos, _, metrics) = run_instrumented(4, machine, instr, busy_body);
        assert_eq!(clean.results, chaos.results, "seed {seed}: results differ");
        assert_eq!(clean.stats, chaos.stats, "seed {seed}: stats differ");
        assert_eq!(clean.makespan(), chaos.makespan(), "seed {seed}");
        let injected = fault_count(&metrics, FAULTS_DROPPED)
            + fault_count(&metrics, FAULTS_DELAYED)
            + fault_count(&metrics, FAULTS_REORDERED)
            + fault_count(&metrics, FAULTS_DUPLICATED);
        assert!(injected > 0, "seed {seed}: the schedule did nothing");
        // Drops were recovered by retransmission.
        assert_eq!(
            fault_count(&metrics, reliable::RETRANSMITS) >= 1,
            fault_count(&metrics, FAULTS_DROPPED) >= 1,
            "seed {seed}: every drop retransmits"
        );
    }
}

/// With reliability on, seeded corruption schedules are byte-invisible
/// exactly like drop schedules: the corrupted attempt never reaches the
/// wire, retransmission heals it, and the only evidence is the
/// `mpi.reliable.corrupt_dropped` / `mpi.fault.corrupted` counters.
#[test]
fn corruption_chaos_is_bit_identical_with_reliability() {
    let machine = MachineModel::sparc_center_1000();
    let clean = run(4, machine, busy_body);
    for seed in [2u64, 13, 77, 2026] {
        let instr = InstrumentConfig {
            metrics: MetricsConfig::on(),
            fault: Some(Arc::new(ChaosLayer::new(
                ChaosConfig::messages_with_corruption(seed),
            ))),
            reliability: ReliabilityConfig::on(),
            ..InstrumentConfig::off()
        };
        let (chaos, _, metrics) = run_instrumented(4, machine, instr, busy_body);
        assert_eq!(clean.results, chaos.results, "seed {seed}: results differ");
        assert_eq!(clean.stats, chaos.stats, "seed {seed}: stats differ");
        assert_eq!(clean.makespan(), chaos.makespan(), "seed {seed}");
        let corrupted = fault_count(&metrics, FAULTS_CORRUPTED);
        assert!(corrupted > 0, "seed {seed}: no corruption was injected");
        assert_eq!(
            fault_count(&metrics, reliable::CORRUPT_DROPPED),
            corrupted,
            "seed {seed}: every corrupt frame is a counted drop"
        );
    }
}

/// Without reliability a corrupted frame is refused at delivery and
/// surfaces as a structured `CommError::Corrupt` naming the edge — its
/// value is never delivered, and the rest of the stream keeps flowing.
/// The corruption schedule is a pure function of the frames, so the
/// same frame errors run over run.
#[test]
fn raw_corruption_surfaces_crc_error_never_a_wrong_payload() {
    let corrupt_fourth = |ctx: &MsgCtx| {
        if ctx.tag == DATA && ctx.seq == 3 {
            FaultAction::Corrupt
        } else {
            FaultAction::Deliver
        }
    };
    let run_once = || {
        let instr = InstrumentConfig {
            metrics: MetricsConfig::on(),
            fault: Some(Arc::new(corrupt_fourth)),
            ..InstrumentConfig::off()
        };
        run_instrumented(2, MachineModel::ideal(), instr, |comm| {
            if comm.rank() == 0 {
                for i in 0..8u64 {
                    comm.send(1, DATA, &(1000 + i));
                }
                return (Vec::new(), Vec::new());
            }
            let mut got = Vec::new();
            let mut errored = Vec::new();
            for i in 0..8u64 {
                match comm.try_recv::<u64>(0, DATA) {
                    Ok(v) => got.push(v),
                    Err(CommError::Corrupt { src, dst, tag }) => {
                        assert_eq!((src, dst, tag), (0, 1, DATA), "edge attribution");
                        assert_eq!(i, 3, "exactly the corrupted frame errors");
                        errored.push(i);
                    }
                    Err(other) => panic!("expected Corrupt, got {other}"),
                }
            }
            (got, errored)
        })
    };
    let (a, _, metrics) = run_once();
    let (got, errored_a) = &a.results[1];
    assert_eq!(
        *got,
        vec![1000, 1001, 1002, 1004, 1005, 1006, 1007],
        "clean frames deliver in order; the corrupt one is discarded"
    );
    assert_eq!(
        metrics[0].counter(FAULTS_CORRUPTED),
        Some(1),
        "sender counted the injection"
    );
    let (b, _, _) = run_once();
    assert_eq!(*errored_a, vec![3]);
    assert_eq!(
        a.results, b.results,
        "the corruption is a pure function of the frames"
    );
}

/// Without the reliability layer, a reorder injection is visible (same
/// (src, tag) stream delivered out of order); with it, the receive
/// window restores sequence order and counts the repair.
#[test]
fn reorder_is_visible_raw_and_masked_reliably() {
    // Hold back only the very first send.
    let layer = |ctx: &MsgCtx| {
        if ctx.seq == 0 {
            FaultAction::Reorder
        } else {
            FaultAction::Deliver
        }
    };
    let body = |comm: &mut Comm| {
        if comm.rank() == 0 {
            comm.send(1, DATA, &"first".to_string());
            comm.send(1, DATA, &"second".to_string());
            Vec::new()
        } else {
            (0..2).map(|_| comm.recv::<String>(0, DATA)).collect()
        }
    };
    let raw = InstrumentConfig {
        metrics: MetricsConfig::on(),
        fault: Some(Arc::new(layer)),
        ..InstrumentConfig::off()
    };
    let (report, _, metrics) = run_instrumented(2, MachineModel::ideal(), raw, body);
    assert_eq!(
        report.results[1],
        vec!["second".to_string(), "first".to_string()],
        "raw reorder swaps the stream"
    );
    assert_eq!(metrics[0].counter(FAULTS_REORDERED), Some(1));

    let masked = InstrumentConfig {
        metrics: MetricsConfig::on(),
        fault: Some(Arc::new(layer)),
        reliability: ReliabilityConfig::on(),
        ..InstrumentConfig::off()
    };
    let (report, _, metrics) = run_instrumented(2, MachineModel::ideal(), masked, body);
    assert_eq!(
        report.results[1],
        vec!["first".to_string(), "second".to_string()],
        "reliable transport restores order"
    );
    assert_eq!(metrics[1].counter(reliable::REORDER_BUFFERED), Some(1));
}

/// Without reliability a duplicated message arrives twice; with it the
/// second copy is suppressed by its sequence number.
#[test]
fn duplicate_is_visible_raw_and_suppressed_reliably() {
    let dup = |m: &MsgCtx| match m.tag {
        DATA => FaultAction::Duplicate,
        _ => FaultAction::Deliver,
    };
    let body_raw = |comm: &mut Comm| {
        if comm.rank() == 0 {
            comm.send(1, DATA, &7u32);
            0
        } else {
            comm.recv::<u32>(0, DATA) + comm.recv::<u32>(0, DATA)
        }
    };
    let raw = InstrumentConfig {
        metrics: MetricsConfig::on(),
        fault: Some(Arc::new(dup)),
        ..InstrumentConfig::off()
    };
    let (report, _, metrics) = run_instrumented(2, MachineModel::ideal(), raw, body_raw);
    assert_eq!(report.results[1], 14, "raw duplicate arrives twice");
    assert_eq!(metrics[0].counter(FAULTS_DUPLICATED), Some(1));

    let body_reliable = |comm: &mut Comm| {
        if comm.rank() == 0 {
            comm.send(1, DATA, &7u32);
            Ok(0)
        } else {
            let first = comm.recv::<u32>(0, DATA);
            // The duplicate was suppressed: a second receive can only
            // end in a disconnect once rank 0 exits.
            comm.try_recv::<u32>(0, DATA).map(|_| first)
        }
    };
    let masked = InstrumentConfig {
        metrics: MetricsConfig::on(),
        fault: Some(Arc::new(dup)),
        reliability: ReliabilityConfig::on(),
        ..InstrumentConfig::off()
    };
    let (report, _, metrics) = run_instrumented(2, MachineModel::ideal(), masked, body_reliable);
    assert!(
        matches!(report.results[1], Err(CommError::PeersDisconnected { .. })),
        "only one copy was deliverable: {:?}",
        report.results[1]
    );
    assert_eq!(metrics[1].counter(reliable::DUPLICATES_DROPPED), Some(1));
}

/// A dropped frame is retransmitted and arrives with its original
/// stamp: virtual time is identical to the fault-free run.
#[test]
fn retransmit_recovers_drop_with_identical_timing() {
    let body = |comm: &mut Comm| {
        if comm.rank() == 0 {
            comm.send(1, DATA, &vec![9u8; 256]);
            comm.now().to_bits()
        } else {
            let v: Vec<u8> = comm.recv(0, DATA);
            assert_eq!(v.len(), 256);
            comm.now().to_bits()
        }
    };
    let clean = run(2, MachineModel::intel_paragon(), body);
    let first_attempt_drops = |ctx: &MsgCtx| {
        if ctx.attempt == 0 {
            FaultAction::Drop
        } else {
            FaultAction::Deliver
        }
    };
    let instr = InstrumentConfig {
        metrics: MetricsConfig::on(),
        fault: Some(Arc::new(first_attempt_drops)),
        reliability: ReliabilityConfig::on(),
        ..InstrumentConfig::off()
    };
    let (faulty, _, metrics) = run_instrumented(2, MachineModel::intel_paragon(), instr, body);
    assert_eq!(clean.results, faulty.results, "retransmit preserves clocks");
    assert_eq!(metrics[0].counter(reliable::RETRANSMITS), Some(1));
    assert!(metrics[0].counter(reliable::BACKOFF_MICROS).is_none());
    assert!(
        metrics[0].histogram(reliable::BACKOFF_MICROS).is_some(),
        "backoff recorded as a histogram"
    );
}

/// A layer that drops every attempt exhausts the retry budget; the
/// transport then forces delivery instead of spinning forever.
#[test]
fn adversarial_drop_exhausts_retries_but_delivers() {
    let instr = InstrumentConfig {
        metrics: MetricsConfig::on(),
        fault: Some(Arc::new(|m: &MsgCtx| match m.tag {
            DATA => FaultAction::Drop,
            _ => FaultAction::Deliver,
        })),
        reliability: ReliabilityConfig::on(),
        ..InstrumentConfig::off()
    };
    let (report, _, metrics) = run_instrumented(2, MachineModel::ideal(), instr, |comm| {
        if comm.rank() == 0 {
            comm.send(1, DATA, &1234u32);
            0
        } else {
            comm.recv::<u32>(0, DATA)
        }
    });
    let attempts = u64::from(MAX_ATTEMPTS);
    assert_eq!(report.results[1], 1234, "payload still arrives");
    assert_eq!(
        metrics[0].counter(reliable::RETRANSMITS),
        Some(attempts - 1)
    );
    assert_eq!(metrics[0].counter(reliable::RETRANSMIT_EXHAUSTED), Some(1));
    assert_eq!(metrics[0].counter(FAULTS_DROPPED), Some(attempts));
    // The last wait before delivery is forced: 1 ms doubled 14 times.
    let waits = metrics[0]
        .histogram(reliable::BACKOFF_MICROS)
        .expect("waits");
    assert_eq!((waits.count, waits.max), (attempts - 1, 1_000 << 14));
}

/// Under the reliable transport a corrupted frame is "handled exactly
/// like a drop": the same schedule on the same edge, once dropping and
/// once corrupting, costs the protocol the same retransmits, the same
/// backoff waits and the same exhausted frames, and delivers the same
/// bytes — the two runs differ only in which fault they say they saw.
#[test]
fn drop_and_corrupt_schedules_cost_the_reliable_transport_the_same() {
    // DATA heals on its second retransmit; BULK never heals and is
    // force-delivered once all `MAX_ATTEMPTS` attempts are spent.
    fn lossy_edge(fault: FaultAction) -> impl Fn(&MsgCtx) -> FaultAction + Send + Sync {
        move |ctx: &MsgCtx| match (ctx.src, ctx.dst, ctx.tag) {
            (0, 1, DATA) if ctx.attempt < 2 => fault,
            (0, 1, BULK) => fault,
            _ => FaultAction::Deliver,
        }
    }
    // Everything a shard recorded except the counters that name the fault.
    fn protocol_view(m: &RankMetrics) -> RankMetrics {
        const FAULT_NAMES: [&str; 3] =
            [FAULTS_DROPPED, FAULTS_CORRUPTED, reliable::CORRUPT_DROPPED];
        let mut view = m.clone();
        view.counters
            .retain(|(name, _)| !FAULT_NAMES.contains(&name.as_str()));
        for (_, window) in &mut view.windows {
            *window = protocol_view(window);
        }
        view
    }
    let run_under = |fault: FaultAction| {
        let instr = InstrumentConfig {
            metrics: MetricsConfig::on(),
            fault: Some(Arc::new(lossy_edge(fault))),
            reliability: ReliabilityConfig::on(),
            ..InstrumentConfig::off()
        };
        run_instrumented(2, MachineModel::sparc_center_1000(), instr, |comm| {
            comm.phase_mark(Phase::Setup);
            if comm.rank() == 0 {
                for i in 0..5u8 {
                    comm.send_bytes(1, DATA, vec![i; 24]);
                }
                for i in 0..3u8 {
                    comm.send_bytes(1, BULK, vec![i; 300]);
                }
                Vec::new()
            } else {
                let mut got: Vec<Vec<u8>> = (0..5).map(|_| comm.recv_bytes(0, DATA)).collect();
                got.extend((0..3).map(|_| comm.recv_bytes(0, BULK)));
                got
            }
        })
    };
    let (dropped, _, drop_metrics) = run_under(FaultAction::Drop);
    let (corrupted, _, corrupt_metrics) = run_under(FaultAction::Corrupt);
    assert_eq!(dropped.results, corrupted.results, "delivered bytes");
    assert_eq!(dropped.results[1].len(), 8);
    assert_eq!(dropped.stats, corrupted.stats, "virtual account");

    let attempts = u64::from(MAX_ATTEMPTS);
    let sender = &drop_metrics[0];
    let retransmits = 5 * 2 + 3 * (attempts - 1);
    assert_eq!(sender.counter(reliable::RETRANSMITS), Some(retransmits));
    assert_eq!(sender.counter(reliable::RETRANSMIT_EXHAUSTED), Some(3));
    assert_eq!(
        sender.histogram(reliable::BACKOFF_MICROS).map(|h| h.count),
        Some(retransmits)
    );
    for (d, c) in drop_metrics.iter().zip(&corrupt_metrics) {
        assert_eq!(protocol_view(d), protocol_view(c), "rank {}", d.rank);
    }
    // What does differ: the fault each run reports having seen.
    let faults = 5 * 2 + 3 * attempts;
    assert_eq!(sender.counter(FAULTS_DROPPED), Some(faults));
    assert_eq!(sender.counter(FAULTS_CORRUPTED), None);
    assert_eq!(sender.counter(reliable::CORRUPT_DROPPED), None);
    let sender = &corrupt_metrics[0];
    assert_eq!(sender.counter(FAULTS_DROPPED), None);
    assert_eq!(sender.counter(FAULTS_CORRUPTED), Some(faults));
    assert_eq!(sender.counter(reliable::CORRUPT_DROPPED), Some(faults));
}

/// A modeled transfer goes through the fault hook as the frame it
/// stands for: the hook is shown its modeled size, and a drop schedule
/// under the reliable transport costs the same retransmits, backoff
/// waits and exhausted frames — and leaves the same virtual account —
/// as it does on a real frame of that size.
#[test]
fn dropped_modeled_transfer_costs_the_retransmits_of_a_real_frame() {
    const N: usize = 300_000;
    let run_with = |modeled: bool| {
        let lossy = |ctx: &MsgCtx| {
            assert_eq!(ctx.bytes, N, "the hook sees the frame's modeled size");
            match ctx.tag {
                DATA if ctx.attempt < 2 => FaultAction::Drop,
                BULK => FaultAction::Drop,
                _ => FaultAction::Deliver,
            }
        };
        let instr = InstrumentConfig {
            metrics: MetricsConfig::on(),
            fault: Some(Arc::new(lossy)),
            reliability: ReliabilityConfig::on(),
            ..InstrumentConfig::off()
        };
        run_instrumented(2, MachineModel::sparc_center_1000(), instr, move |comm| {
            comm.phase_mark(Phase::Setup);
            for tag in [DATA, BULK] {
                match (comm.rank(), modeled) {
                    (0, true) => comm.send_modeled(1, tag, N),
                    (0, false) => comm.send_bytes(1, tag, vec![0; N]),
                    (_, true) => assert_eq!(comm.recv_modeled(0, tag), N),
                    (_, false) => assert_eq!(comm.recv_bytes(0, tag).len(), N),
                }
            }
        })
    };
    let (real, _, real_metrics) = run_with(false);
    let (modeled, _, modeled_metrics) = run_with(true);
    assert_eq!(real.stats, modeled.stats, "virtual account");
    assert_eq!(real_metrics, modeled_metrics, "every transport counter");
    let attempts = u64::from(MAX_ATTEMPTS);
    let sender = &modeled_metrics[0];
    assert_eq!(
        sender.counter(reliable::RETRANSMITS),
        Some(2 + attempts - 1)
    );
    assert_eq!(sender.counter(reliable::RETRANSMIT_EXHAUSTED), Some(1));
    assert_eq!(
        sender.histogram(reliable::BACKOFF_MICROS).map(|h| h.count),
        Some(2 + attempts - 1)
    );
    assert_eq!(sender.counter(FAULTS_DROPPED), Some(2 + attempts));
}

/// Without reliability a corrupted modeled transfer is refused like any
/// other frame: the receive surfaces `CommError::Corrupt`, no size is
/// delivered, and the next transfer on the stream still is.
#[test]
fn raw_corruption_of_a_modeled_transfer_surfaces_crc_error() {
    let corrupt_first = |ctx: &MsgCtx| match ctx.seq {
        0 => FaultAction::Corrupt,
        _ => FaultAction::Deliver,
    };
    let instr = InstrumentConfig {
        metrics: MetricsConfig::on(),
        fault: Some(Arc::new(corrupt_first)),
        ..InstrumentConfig::off()
    };
    let (report, _, metrics) = run_instrumented(2, MachineModel::ideal(), instr, |comm| {
        if comm.rank() == 0 {
            comm.send_modeled(1, DATA, 1 << 20);
            comm.send_modeled(1, DATA, 77);
            None
        } else {
            let first = comm.try_recv::<()>(0, DATA);
            Some((first, comm.recv_modeled(0, DATA)))
        }
    });
    let (first, second) = report.results[1].as_ref().expect("rank 1 reports");
    assert!(
        matches!(
            first,
            Err(CommError::Corrupt {
                src: 0,
                dst: 1,
                tag: DATA,
                ..
            })
        ),
        "{first:?}"
    );
    assert_eq!(*second, 77);
    assert_eq!(metrics[0].counter(FAULTS_CORRUPTED), Some(1));
}

/// `CommError::RankDead` carries the dead rank id and the death record
/// from its exit notice (its clock, and the phase/boundary it died at);
/// survivors shrink the world deterministically and keep communicating.
#[test]
fn phase_kill_surfaces_rank_dead_and_world_remaps() {
    let chaos = ChaosLayer::new(ChaosConfig {
        kills: vec![(1, 0)],
        ..ChaosConfig::messages_only(11)
    });
    let instr = InstrumentConfig {
        metrics: MetricsConfig::on(),
        fault: Some(Arc::new(chaos)),
        reliability: ReliabilityConfig::on(),
        ..InstrumentConfig::off()
    };
    let (report, _, _) = run_instrumented(4, MachineModel::ideal(), instr, |comm| {
        match comm.boundary(Phase::Setup, || None) {
            PhaseControl::SelfKilled => {
                assert_eq!(comm.physical_rank(), 1, "only rank 1 is scheduled");
                return (Vec::new(), Vec::new());
            }
            PhaseControl::PeersDied(dead) => {
                assert_eq!(dead, vec![1]);
                // Logical 1 is still physical 1 until removal: the recv
                // must diagnose the death, not hang.
                let err = comm.try_recv::<Vec<u8>>(1, DATA).expect_err("peer is dead");
                match err {
                    CommError::RankDead {
                        rank,
                        dead,
                        tag,
                        died_at,
                        phase,
                        boundary,
                    } => {
                        assert_eq!(rank, comm.physical_rank());
                        assert_eq!(dead, 1);
                        assert_eq!(tag, DATA);
                        assert!(died_at >= 0.0 && died_at.is_finite());
                        assert_eq!(phase, "setup");
                        assert_eq!(boundary, 1);
                    }
                    other => panic!("expected RankDead, got {other}"),
                }
                // A kill entering the first phase has no boundary behind
                // it: no collective, a restart.
                assert!(comm.shrink_world(&dead, Phase::Setup).is_none());
            }
            other => panic!("a peer died at this boundary, got {other:?}"),
        }
        // Survivors renumber densely in physical order and all
        // collectives keep working over the shrunken world.
        let world = comm.world().to_vec();
        let members = comm.allgather(comm.physical_rank() as u64);
        (members, world)
    });
    for phys in [0usize, 2, 3] {
        let (members, world) = &report.results[phys];
        assert_eq!(*world, vec![0, 2, 3], "physical {phys}");
        assert_eq!(*members, vec![0, 2, 3], "physical {phys}");
    }
    assert_eq!(
        report.results[1],
        (Vec::new(), Vec::new()),
        "victim unwound"
    );
}

/// Two ranks dying at the same boundary are removed together, and the
/// whole run (kills plus message chaos) is deterministic end to end.
#[test]
fn multi_kill_is_deterministic() {
    let run_once = || {
        let chaos = ChaosLayer::new(ChaosConfig {
            kills: vec![(1, 1), (3, 1)],
            ..ChaosConfig::messages_only(23)
        });
        let instr = InstrumentConfig {
            metrics: MetricsConfig::on(),
            fault: Some(Arc::new(chaos)),
            reliability: ReliabilityConfig::on(),
            ..InstrumentConfig::off()
        };
        run_instrumented(5, MachineModel::sparc_center_1000(), instr, |comm| {
            assert_eq!(comm.boundary(Phase::Setup, || None), PhaseControl::Continue);
            let all = comm.allreduce(1u64, |a, b| a + b);
            assert_eq!(all, 5);
            match comm.boundary(Phase::Steiner, || None) {
                PhaseControl::SelfKilled => return 0,
                PhaseControl::PeersDied(dead) => {
                    assert_eq!(dead, vec![1, 3]);
                    // A metadata-only commit cannot seed a resume: one
                    // allreduce agrees on a restart.
                    assert!(comm.shrink_world(&dead, Phase::Steiner).is_none());
                }
                other => panic!("two peers died here, got {other:?}"),
            }
            comm.allreduce(comm.physical_rank() as u64, |a, b| a + b)
        })
    };
    let (a, _, _) = run_once();
    let (b, _, _) = run_once();
    for phys in [0usize, 2, 4] {
        assert_eq!(a.results[phys], 6, "survivors sum physical ids 0+2+4");
    }
    assert_eq!(a.results[1], 0);
    assert_eq!(a.results[3], 0);
    assert_eq!(a.results, b.results, "kill schedules are deterministic");
    assert_eq!(a.stats, b.stats);
}

/// A redundant copy can race the receiver's exit: under chaos a rank
/// exits once it has everything it needs, so a duplicate's second frame
/// may find the channel already closed. With a fault layer active that
/// is a counted drop, not a `PeerGone` panic (the frame has no
/// consumer — the receiver completed off the first copy).
#[test]
fn send_racing_peer_exit_is_dropped_not_fatal() {
    // No probabilistic faults, no kills: the layer's mere presence
    // selects the tolerant path. Rank 1 exits immediately; rank 0
    // first blocks until rank 1's exit notice is in (the receive below
    // can only end in `PeersDisconnected`), then sends. A rank drops its
    // receiver before its notices go out, so the send finds it gone.
    let instr = InstrumentConfig {
        metrics: MetricsConfig::on(),
        fault: Some(Arc::new(ChaosLayer::new(ChaosConfig {
            drop: 0.0,
            reorder: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            ..ChaosConfig::messages_only(1)
        }))),
        reliability: ReliabilityConfig::on(),
        ..InstrumentConfig::off()
    };
    let (report, _, metrics) =
        run_instrumented(2, MachineModel::sparc_center_1000(), instr, |comm| {
            if comm.rank() == 0 {
                let gone = comm.try_recv::<u32>(1, NEVER);
                assert!(matches!(gone, Err(CommError::PeersDisconnected { .. })));
                comm.send(1, DATA, &1u32);
            }
            comm.rank()
        });
    assert_eq!(report.results, vec![0, 1]);
    assert_eq!(
        fault_count(&metrics, pgr_mpi::fault::SENDS_TO_EXITED),
        1,
        "the raced frame is counted, not fatal"
    );
}
