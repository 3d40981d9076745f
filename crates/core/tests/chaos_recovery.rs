//! Chaos + recovery at the algorithm level.
//!
//! Two contracts, per parallel algorithm:
//!
//! * **Non-lossy schedules are invisible.** Under any randomized
//!   drop/delay/reorder/duplicate schedule (no kills) with the reliable
//!   transport on, routing results, per-rank stats, the makespan, and
//!   the emitted `stats.json` are byte-identical to the fault-free run
//!   of the same seed.
//! * **Kill schedules degrade, not crash.** When a rank dies at a phase
//!   boundary, the survivors redistribute its rows/nets (the partition
//!   heuristics re-run over the shrunken world), the run completes with
//!   a valid routing, and the recovery is counted in the metrics.

use pgr_circuit::{generate, Circuit, GeneratorConfig};
use pgr_mpi::Comm;
use pgr_mpi::{
    stats_json, ChaosConfig, ChaosLayer, InstrumentConfig, MachineModel, MetricsConfig,
    ReliabilityConfig, RunMeta,
};
use pgr_router::metrics::names;
use pgr_router::verify::assert_verified;
use pgr_router::{
    route_parallel_guarded, try_route_serial, Algorithm, GuardedOutcome, PartitionKind,
    RecoveryPolicy, RouterConfig,
};
use std::sync::Arc;

fn small(tag: &str) -> Circuit {
    generate(&GeneratorConfig::small(tag, 17))
}

/// A kill-free schedule with every message fault enabled.
fn message_chaos(seed: u64) -> InstrumentConfig {
    InstrumentConfig {
        metrics: MetricsConfig::on(),
        fault: Some(Arc::new(ChaosLayer::new(ChaosConfig::messages_only(seed)))),
        reliability: ReliabilityConfig::on(),
        ..InstrumentConfig::off()
    }
}

/// Kill `rank` at phase boundary `b`, with message chaos layered on top
/// unless `quiet` (kills only) is requested.
fn kill_chaos(rank: usize, b: u64, quiet: bool) -> InstrumentConfig {
    let mut cfg = ChaosConfig::messages_only(31);
    if quiet {
        cfg.drop = 0.0;
        cfg.reorder = 0.0;
        cfg.duplicate = 0.0;
        cfg.delay = 0.0;
    }
    cfg.kills = vec![(rank, b)];
    InstrumentConfig {
        metrics: MetricsConfig::on(),
        fault: Some(Arc::new(ChaosLayer::new(cfg))),
        reliability: ReliabilityConfig::on(),
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
        &RouterConfig::with_seed(9),
        algo,
        PartitionKind::PinWeight,
        procs,
        MachineModel::sparc_center_1000(),
        instr,
    )
}

fn counter_sum(out: &GuardedOutcome, name: &'static str) -> u64 {
    out.metrics.iter().filter_map(|m| m.counter(name)).sum()
}

fn emitted_stats(out: &GuardedOutcome, algo: Algorithm) -> String {
    let meta = RunMeta {
        degraded: out.degraded,
        ..RunMeta::new(
            &out.result.as_ref().unwrap().circuit,
            algo.name(),
            out.stats.len(),
            "sparc-center-1000",
            1.0,
            9,
        )
    };
    stats_json(&out.stats, &MachineModel::sparc_center_1000(), &meta)
}

#[test]
fn message_chaos_with_reliability_is_invisible() {
    let c = small("chaos-clean");
    for algo in Algorithm::ALL {
        let clean = route(
            &c,
            algo,
            4,
            InstrumentConfig {
                metrics: MetricsConfig::on(),
                ..InstrumentConfig::off()
            },
        );
        for seed in [3u64, 77] {
            let chaotic = route(&c, algo, 4, message_chaos(seed));
            let name = algo.name();
            assert_eq!(clean.result, chaotic.result, "{name} seed {seed}: result");
            assert_eq!(clean.stats, chaotic.stats, "{name} seed {seed}: stats");
            assert_eq!(clean.time, chaotic.time, "{name} seed {seed}: makespan");
            assert_eq!(
                emitted_stats(&clean, algo),
                emitted_stats(&chaotic, algo),
                "{name} seed {seed}: stats.json bytes"
            );
            // The schedule genuinely fired (this is not a vacuous pass)
            // and no recovery was needed.
            let injected = counter_sum(&chaotic, pgr_mpi::fault::FAULTS_DROPPED)
                + counter_sum(&chaotic, pgr_mpi::fault::FAULTS_DELAYED)
                + counter_sum(&chaotic, pgr_mpi::fault::FAULTS_REORDERED)
                + counter_sum(&chaotic, pgr_mpi::fault::FAULTS_DUPLICATED);
            assert!(injected > 0, "{name} seed {seed}: schedule fired nothing");
            assert_eq!(counter_sum(&chaotic, names::RECOVERY_EVENTS), 0, "{name}");
        }
    }
}

/// Like [`route`] but with an explicit recovery policy.
fn route_with_policy(
    circuit: &Circuit,
    algo: Algorithm,
    procs: usize,
    instr: InstrumentConfig,
    recovery: RecoveryPolicy,
) -> GuardedOutcome {
    route_parallel_guarded(
        circuit,
        &RouterConfig {
            recovery,
            ..RouterConfig::with_seed(9)
        },
        algo,
        PartitionKind::PinWeight,
        procs,
        MachineModel::sparc_center_1000(),
        instr,
    )
}

/// What the serial fallback must reproduce bit-for-bit: the pure serial
/// run of the same circuit and seed.
fn serial_reference(circuit: &Circuit) -> pgr_router::RoutingResult {
    try_route_serial(
        circuit,
        &RouterConfig::with_seed(9),
        &mut Comm::solo(MachineModel::sparc_center_1000()),
    )
    .unwrap()
}

/// Shared assertions on a run that breached its recovery policy: the
/// route completed via the serial fallback, the fallback's result is
/// bit-identical to the pure serial run, the degraded flag reaches the
/// stats schema, and the automatic self-check ran clean.
fn assert_degraded_to_serial(c: &Circuit, out: &GuardedOutcome, name: &str) {
    assert!(out.degraded, "{name}: outcome carries the degraded flag");
    assert_eq!(
        counter_sum(out, names::DEGRADED_SERIAL),
        1,
        "{name}: exactly one rank completes serially"
    );
    assert_eq!(
        out.result,
        Ok(serial_reference(c)),
        "{name}: fallback equals the pure serial run"
    );
    assert!(
        out.metrics
            .iter()
            .any(|m| m.counter(names::VERIFY_VIOLATIONS).is_some()),
        "{name}: the self-check ran"
    );
    assert_eq!(
        counter_sum(out, names::VERIFY_VIOLATIONS),
        0,
        "{name}: the self-check found nothing"
    );
    assert!(
        emitted_stats(out, Algorithm::Hybrid).contains("\"degraded\":true"),
        "{name}: the degraded flag reaches stats.json"
    );
    assert_verified(c, out.result.as_ref().unwrap());
}

/// A kill breaching the min-ranks floor stops the retry loop: the
/// lowest surviving rank completes the route serially, stamps
/// `parallel.degraded_serial`, and the result equals the pure serial
/// run — verified automatically.
#[test]
fn breaching_min_ranks_floor_degrades_to_serial_fallback() {
    let c = small("chaos-floor");
    for algo in Algorithm::ALL {
        let out = route_with_policy(
            &c,
            algo,
            4,
            kill_chaos(2, 1, true),
            RecoveryPolicy {
                max_rounds: 8,
                min_ranks: 4,
            },
        );
        assert_degraded_to_serial(&c, &out, algo.name());
        assert_eq!(
            counter_sum(&out, names::RECOVERY_EVENTS),
            3,
            "{}",
            algo.name()
        );
    }
}

/// Exhausting the round budget degrades the same way, even with message
/// chaos still raging underneath the kill.
#[test]
fn exhausting_max_rounds_degrades_to_serial_fallback() {
    let c = small("chaos-budget");
    let out = route_with_policy(
        &c,
        Algorithm::Hybrid,
        4,
        kill_chaos(3, 2, false),
        RecoveryPolicy {
            max_rounds: 1,
            min_ranks: 1,
        },
    );
    assert_degraded_to_serial(&c, &out, "hybrid");
}

/// The degraded path is as deterministic as everything else: same
/// schedule, same policy → byte-identical outcome.
#[test]
fn serial_fallback_is_deterministic() {
    let c = small("chaos-fallback-det");
    let go = || {
        route_with_policy(
            &c,
            Algorithm::RowWise,
            4,
            kill_chaos(1, 1, false),
            RecoveryPolicy {
                max_rounds: 1,
                min_ranks: 1,
            },
        )
    };
    let a = go();
    let b = go();
    assert!(a.degraded && b.degraded);
    assert_eq!(a.result, b.result);
    assert_eq!(a.stats, b.stats);
    assert_eq!(
        emitted_stats(&a, Algorithm::RowWise),
        emitted_stats(&b, Algorithm::RowWise)
    );
}

/// The default policy never degrades on a survivable schedule, and a
/// `min_ranks` floor that the survivors still satisfy keeps the
/// parallel pipeline running.
#[test]
fn surviving_within_policy_bounds_stays_parallel() {
    let c = small("chaos-within");
    let out = route_with_policy(
        &c,
        Algorithm::Hybrid,
        4,
        kill_chaos(3, 1, true),
        RecoveryPolicy {
            max_rounds: 2,
            min_ranks: 3,
        },
    );
    assert!(!out.degraded, "3 survivors ≥ floor of 3");
    assert_eq!(counter_sum(&out, names::DEGRADED_SERIAL), 0);
    assert!(counter_sum(&out, names::RECOVERY_EVENTS) >= 1);
    assert!(!emitted_stats(&out, Algorithm::Hybrid).contains("degraded"));
    assert_verified(&c, out.result.as_ref().unwrap());
}

#[test]
fn one_rank_kill_completes_with_valid_routing_and_recovery_metrics() {
    let c = small("chaos-kill");
    for algo in Algorithm::ALL {
        // Rank 3 dies entering the coarse-routing phase, with message
        // chaos still raging underneath.
        let out = route(&c, algo, 4, kill_chaos(3, 2, false));
        let name = algo.name();
        assert_verified(&c, out.result.as_ref().unwrap());
        assert!(out.result.as_ref().unwrap().span_count() > 0, "{name}");
        assert!(
            counter_sum(&out, names::RECOVERY_EVENTS) >= 1,
            "{name}: survivors count the recovery round"
        );
        assert_eq!(
            counter_sum(&out, names::RANKS_LOST),
            3, // one dead rank, counted by each of the 3 survivors
            "{name}: ranks-lost accounting"
        );
        // Any recovered run re-verifies its result automatically.
        assert!(
            out.metrics
                .iter()
                .any(|m| m.counter(names::VERIFY_VIOLATIONS).is_some()),
            "{name}: the post-recovery self-check ran"
        );
        assert_eq!(counter_sum(&out, names::VERIFY_VIOLATIONS), 0, "{name}");
    }
}

#[test]
fn kill_before_any_work_equals_fresh_smaller_world() {
    // The victim dies at the very first checkpoint, so the survivors'
    // retry *is* a fresh 3-rank run: identical result and identical
    // virtual time (recovery re-derives partitions and rank-seeded RNG
    // streams from the logical world).
    let c = small("chaos-fresh");
    for algo in Algorithm::ALL {
        let degraded = route(&c, algo, 4, kill_chaos(3, 0, true));
        let fresh = route(
            &c,
            algo,
            3,
            InstrumentConfig {
                metrics: MetricsConfig::on(),
                ..InstrumentConfig::off()
            },
        );
        let name = algo.name();
        assert_eq!(
            degraded.result, fresh.result,
            "{name}: deterministic re-partition"
        );
        assert_eq!(degraded.time, fresh.time, "{name}: no work was lost");
    }
}

#[test]
fn rank_zero_kill_moves_assembly_to_lowest_survivor() {
    let c = small("chaos-root");
    for algo in Algorithm::ALL {
        // Rank 0 — the distribution master and assembly root — dies
        // after setup; physical rank 1 becomes logical rank 0.
        let out = route(&c, algo, 3, kill_chaos(0, 1, true));
        let name = algo.name();
        assert_verified(&c, out.result.as_ref().unwrap());
        // The re-run over 2 survivors makes the same routing decisions
        // as a fresh 2-rank run (clocks differ: setup work was lost).
        let fresh = route(&c, algo, 2, InstrumentConfig::off());
        assert_eq!(out.result, fresh.result, "{name}");
        assert!(counter_sum(&out, names::RECOVERY_EVENTS) >= 1, "{name}");
    }
}

#[test]
fn kill_schedules_are_deterministic() {
    let c = small("chaos-det");
    let a = route(&c, Algorithm::Hybrid, 4, kill_chaos(2, 3, false));
    let b = route(&c, Algorithm::Hybrid, 4, kill_chaos(2, 3, false));
    assert_eq!(a.result, b.result);
    assert_eq!(a.time, b.time);
    assert_eq!(a.stats, b.stats);
}
