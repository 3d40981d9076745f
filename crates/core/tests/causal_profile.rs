//! Acceptance criteria for the cross-rank causal profiler.
//!
//! Four contracts over real routing runs:
//!
//! * **Exact partition.** On every lossless run of all four drivers
//!   (serial plus the three parallel algorithms) the extracted critical
//!   path is a contiguous happens-before chain whose segment durations
//!   sum to the virtual makespan *exactly* (bit-for-bit, via the
//!   telescoping sum), with no transport/recovery/degraded blame.
//! * **Determinism.** Full instrumentation (traces + metrics) is
//!   invisible to the routing result and the makespan.
//! * **Recovery blame.** Under a kill schedule, restart-tainted work
//!   appears as its own `recovery` segment class and the blame
//!   partition still sums to the makespan.
//! * **Matching invariance.** The send→recv matching (and hence the
//!   whole profile) is identical between a fault-free run and a chaos
//!   run masked by the reliable transport.

use pgr_circuit::{generate, Circuit, GeneratorConfig};
use pgr_mpi::{
    build_profile, match_messages, run_instrumented, ChaosConfig, ChaosLayer, InstrumentConfig,
    MachineModel, MetricsConfig, ReliabilityConfig, TraceConfig,
};
use pgr_obs::{BlameClass, Profile};
use pgr_router::{
    route_parallel_guarded, try_route_serial, Algorithm, GuardedOutcome, PartitionKind,
    RouterConfig,
};
use std::sync::Arc;

fn small(tag: &str) -> Circuit {
    generate(&GeneratorConfig::small(tag, 13))
}

fn full() -> InstrumentConfig {
    InstrumentConfig {
        trace: TraceConfig::on(),
        metrics: MetricsConfig::on(),
        ..InstrumentConfig::off()
    }
}

fn route(
    circuit: &Circuit,
    algo: Algorithm,
    procs: usize,
    instr: InstrumentConfig,
) -> GuardedOutcome {
    route_parallel_guarded(
        circuit,
        &RouterConfig::with_seed(4),
        algo,
        PartitionKind::PinWeight,
        procs,
        MachineModel::sparc_center_1000(),
        instr,
    )
}

/// The core acceptance assertion: a clean, contiguous chain whose
/// telescoping sum equals the makespan with zero error.
fn assert_exact(p: &Profile, ctx: &str) {
    assert!(p.warnings.is_empty(), "{ctx}: warnings {:?}", p.warnings);
    assert!(!p.truncated, "{ctx}: truncated");
    assert!(!p.critical_path.is_empty(), "{ctx}: empty path");
    assert!(p.is_contiguous(), "{ctx}: path is not a contiguous chain");
    assert_eq!(
        p.critical_path_seconds().to_bits(),
        p.makespan.to_bits(),
        "{ctx}: path sum {} != makespan {}",
        p.critical_path_seconds(),
        p.makespan
    );
    // Cross-check the naive per-segment sum too (accumulated error only).
    let sum: f64 = p.critical_path.iter().map(|s| s.seconds()).sum();
    assert!(
        (sum - p.makespan).abs() <= 1e-9 * p.makespan.max(1.0),
        "{ctx}: naive sum {sum} far from makespan {}",
        p.makespan
    );
    // Every second of path time is also accounted to a blame class.
    let classes: f64 = p.class_seconds.iter().sum();
    assert!(
        (classes - p.makespan).abs() <= 1e-9 * p.makespan.max(1.0),
        "{ctx}: class sum {classes} != makespan {}",
        p.makespan
    );
}

#[test]
fn lossless_runs_partition_makespan_exactly() {
    let c = small("profile");
    let m = MachineModel::sparc_center_1000();

    // Serial driver.
    let cfg = RouterConfig::with_seed(4);
    let (report, traces, _) = run_instrumented(1, m, full(), |comm| {
        try_route_serial(&c, &cfg, comm).unwrap();
    });
    let p = build_profile(&traces, &m);
    assert_exact(&p, "serial");
    assert_eq!(p.makespan.to_bits(), report.makespan().to_bits(), "serial");

    // All three parallel algorithms at P in {1, 3}.
    for algo in Algorithm::ALL {
        for procs in [1usize, 3] {
            let ctx = format!("{algo:?} p{procs}");
            let out = route(&c, algo, procs, full());
            let p = build_profile(&out.traces, &m);
            assert_exact(&p, &ctx);
            assert_eq!(p.makespan.to_bits(), out.time.to_bits(), "{ctx}");
            // Lossless runs have nothing to blame on faults.
            for class in [
                BlameClass::Transport,
                BlameClass::Recovery,
                BlameClass::Degraded,
            ] {
                assert_eq!(
                    p.class_seconds[class.index()],
                    0.0,
                    "{ctx}: unexpected {} blame",
                    class.name()
                );
            }
        }
    }
}

#[test]
fn profiling_is_invisible_to_results_and_makespan() {
    let c = small("profile-det");
    for algo in Algorithm::ALL {
        let bare = route(&c, algo, 3, InstrumentConfig::off());
        let probed = route(&c, algo, 3, full());
        assert_eq!(bare.result, probed.result, "{algo:?}: result changed");
        assert_eq!(
            bare.time.to_bits(),
            probed.time.to_bits(),
            "{algo:?}: makespan changed"
        );
    }
}

#[test]
fn kill_schedule_surfaces_recovery_blame_and_still_sums() {
    let c = small("profile-kill");
    let m = MachineModel::sparc_center_1000();

    // Kill rank 2 at its third phase boundary; no message faults, so the
    // only non-compute blame besides recv-wait is the recovery restart.
    let mut chaos = ChaosConfig::messages_only(31);
    chaos.drop = 0.0;
    chaos.reorder = 0.0;
    chaos.duplicate = 0.0;
    chaos.delay = 0.0;
    chaos.kills = vec![(3, 2)];
    let instr = InstrumentConfig {
        trace: TraceConfig::on(),
        metrics: MetricsConfig::on(),
        fault: Some(Arc::new(ChaosLayer::new(chaos))),
        reliability: ReliabilityConfig::on(),
        ..InstrumentConfig::off()
    };
    let out = route(&c, Algorithm::Hybrid, 4, instr);
    assert!(
        !out.degraded,
        "kill run degraded to serial; recovery blame untestable"
    );

    let p = build_profile(&out.traces, &m);
    assert!(p.warnings.is_empty(), "warnings {:?}", p.warnings);
    assert!(p.is_contiguous(), "path not contiguous after recovery");
    assert_eq!(
        p.critical_path_seconds().to_bits(),
        p.makespan.to_bits(),
        "path sum changed under recovery"
    );
    assert!(
        p.class_seconds[BlameClass::Recovery.index()] > 0.0,
        "recovery restart did not surface as its own blame class"
    );

    // The rendered blame table carries the recovery class and the phase
    // rows still partition the path (checked internally by class sums).
    let run = pgr_obs::RunMeta::new("profile-kill", "hybrid", 4, "sparc_center_1000", 1.0, 4);
    let table = p.blame_markdown(&run);
    assert!(
        table.contains("recovery"),
        "blame table lost the recovery class"
    );

    // Survivor shards re-enter phases: the per-trace phase durations must
    // still mirror the engine's own per-rank stats exactly.
    for (r, trace) in out.traces.iter().enumerate() {
        let durs = trace.phase_durations();
        let stats = &out.stats[r].phases;
        assert_eq!(durs.len(), stats.len(), "rank {r}: phase count mismatch");
        for ((tn, td), (sn, sd)) in durs.iter().zip(stats.iter()) {
            assert_eq!(tn, sn, "rank {r}: phase name mismatch");
            assert_eq!(td.to_bits(), sd.to_bits(), "rank {r}: phase {tn} duration");
        }
    }
}

#[test]
fn matching_is_invariant_under_masked_chaos() {
    let c = small("profile-chaos");
    let clean = route(&c, Algorithm::RowWise, 3, full());

    let instr = InstrumentConfig {
        trace: TraceConfig::on(),
        metrics: MetricsConfig::on(),
        fault: Some(Arc::new(ChaosLayer::new(ChaosConfig::messages_only(7)))),
        reliability: ReliabilityConfig::on(),
        ..InstrumentConfig::off()
    };
    let chaotic = route(&c, Algorithm::RowWise, 3, instr);

    let (mut a, wa) = match_messages(&clean.traces);
    let (mut b, wb) = match_messages(&chaotic.traces);
    assert!(
        wa.is_empty() && wb.is_empty(),
        "unmatched recvs: {wa:?} {wb:?}"
    );
    let key = |m: &pgr_mpi::MatchedMessage| (m.src, m.dst, m.seq, m.tag, m.bytes);
    a.sort_by_key(key);
    b.sort_by_key(key);
    assert_eq!(
        a.len(),
        b.len(),
        "matched-message count diverged under chaos"
    );
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(key(x), key(y), "matching diverged under masked chaos");
    }

    // Masked chaos is byte-invisible, so the whole profile must agree.
    let m = MachineModel::sparc_center_1000();
    let pa = build_profile(&clean.traces, &m);
    let pb = build_profile(&chaotic.traces, &m);
    assert_eq!(
        pa.makespan.to_bits(),
        pb.makespan.to_bits(),
        "makespan diverged"
    );
    assert_eq!(
        pa.critical_path.len(),
        pb.critical_path.len(),
        "path length diverged"
    );
    for (x, y) in pa.critical_path.iter().zip(pb.critical_path.iter()) {
        assert_eq!(x.rank, y.rank, "path rank diverged");
        assert_eq!(x.class, y.class, "path class diverged");
        assert_eq!(x.t0.to_bits(), y.t0.to_bits(), "path t0 diverged");
        assert_eq!(x.t1.to_bits(), y.t1.to_bits(), "path t1 diverged");
    }
}
