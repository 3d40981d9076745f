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

mod harness;

use harness::{
    cases, check, counter_sum, fallback_runs, grid, kills, noisy_kill, outcome, small, with,
    Relation, Run, Setup, KILL_P,
};
use pgr_router::metrics::names;
use pgr_router::Algorithm;

#[test]
fn message_chaos_with_reliability_is_invisible() {
    check(Relation::chaos_masked(grid(
        [&cases().small],
        &KILL_P,
        &Algorithm::ALL,
    )));
}

/// Exhausting the round budget stops the retry loop, even with message
/// chaos still raging underneath the kill: exactly one surviving rank
/// completes the route serially, the result equals the pure serial run,
/// and the degraded flag reaches `stats.json`.
#[test]
fn exhausting_max_rounds_degrades_to_serial_fallback() {
    let serial = outcome(&Run::plain(small(Algorithm::Serial, 1)));
    for run in fallback_runs() {
        let out = outcome(&run);
        assert!(out.degraded, "{run}: no degraded flag");
        assert_eq!(counter_sum(&out, names::DEGRADED_SERIAL), 1, "{run}");
        assert_eq!(
            out.result, serial.result,
            "{run}: fallback differs from serial"
        );
        assert!(run.dump(&out).contains("\"degraded\":true"), "{run}");
    }
}

/// The degraded path is as deterministic as everything else: same
/// schedule, same policy → byte-identical outcome.
#[test]
fn serial_fallback_is_deterministic() {
    check(Relation::rerun(fallback_runs()));
    for run in fallback_runs() {
        assert!(outcome(&run).degraded, "{run}: no degraded flag");
    }
}

/// A policy whose round budget covers the schedule's kills keeps the
/// parallel pipeline running.
#[test]
fn surviving_within_policy_bounds_stays_parallel() {
    let max_rounds = Some(2);
    let run = Run::new(
        small(Algorithm::Hybrid, 4),
        Setup {
            max_rounds,
            ..kills(vec![(3, 1)])
        },
    );
    let out = outcome(&run);
    assert!(!out.degraded, "one kill is within two rounds");
    assert_eq!(counter_sum(&out, names::DEGRADED_SERIAL), 0);
    assert!(counter_sum(&out, names::RECOVERY_EVENTS) >= 1);
    assert!(!run.dump(&out).contains("degraded"));
}

/// Rank 3 dies entering the coarse-routing phase, with message chaos
/// still raging underneath: the survivors complete a valid routing —
/// the fresh 3-rank one — and count the recovery.
#[test]
fn one_rank_kill_completes_with_valid_routing_and_recovery_metrics() {
    let cells = grid([&cases().small], &[4], &Algorithm::ALL);
    check(Relation::kill_resume(with(cells.clone(), noisy_kill(3, 2))));
    for cell in cells {
        let out = outcome(&Run::new(cell, noisy_kill(3, 2)));
        assert!(out.result.as_ref().unwrap().span_count() > 0, "{cell}");
    }
}

/// The victim dies at the very first checkpoint, so the survivors'
/// retry *is* a fresh 3-rank run: identical result and identical
/// virtual time (recovery re-derives partitions and rank-seeded RNG
/// streams from the logical world).
#[test]
fn kill_before_any_work_equals_fresh_smaller_world() {
    let cells = grid([&cases().small], &[4], &Algorithm::ALL);
    check(Relation::kill_resume(with(cells, kills(vec![(3, 0)]))));
}

#[test]
fn rank_zero_kill_moves_assembly_to_lowest_survivor() {
    check(Relation::root_kill(grid(
        [&cases().small],
        &KILL_P,
        &Algorithm::ALL,
    )));
}

#[test]
fn kill_schedules_are_deterministic() {
    let run = Run::new(small(Algorithm::Hybrid, 4), noisy_kill(2, 3));
    check(Relation::rerun(vec![run]));
}
