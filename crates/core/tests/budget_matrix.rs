//! Resource-budget guardrails across every driver and phase boundary.
//!
//! For each driver (serial plus the three parallel algorithms, the
//! latter at P ∈ {1, 3}, all through the one guarded harness) the suite
//! probes an unbudgeted
//! run, then arms a time lever targeted at each of the seven pipeline
//! phases in turn. Contracts:
//!
//! * every budgeted run ends **structured** — `Ok` (possibly
//!   `budget_degraded` after shedding optional refinement) or the agreed
//!   `RouteError::BudgetExceeded` — never a panic;
//! * outcomes are **bit-deterministic**: the same lever run twice gives
//!   the identical error or the identical result and virtual clock;
//! * a targetable phase (longer than everything before it) reports its
//!   breach no earlier than itself;
//! * `Ok` results always carry a `verify` proof with zero violations,
//!   shed or not;
//! * metric windows still partition the totals exactly, breach or shed
//!   counters included;
//! * the byte cap and the recovery-round bound trip as their own
//!   `BudgetKind`s, and generous limits reproduce the unbudgeted
//!   route bit-for-bit.

mod harness;

use harness::{
    budget, cases, check, generous_budget, grid, kills, one_and_three, outcome, tight_bytes,
    Relation, Run, Setup,
};
use pgr_mpi::{BudgetKind, Phase, ResourceBudget};
use pgr_obs::budget_names;
use pgr_router::metrics::names;
use pgr_router::{Algorithm, GuardedOutcome, RouteError};

/// Per-phase durations of an unbudgeted run (first-appearance order,
/// re-entries accumulated): the max across ranks of each rank's
/// accumulated time in that phase. The per-phase lever applies on every
/// rank, so targeting a phase means clearing the slowest rank of every
/// earlier phase.
fn phase_durations(out: &GuardedOutcome) -> Vec<(Phase, f64)> {
    let mut phases: Vec<(Phase, f64)> = Vec::new();
    for s in &out.stats {
        let mut local: Vec<(Phase, f64)> = Vec::new();
        for (name, secs) in &s.phases {
            let phase = Phase::from_name(name).expect("stats use registry phases");
            match local.iter_mut().find(|(p, _)| *p == phase) {
                Some((_, acc)) => *acc += secs,
                None => local.push((phase, *secs)),
            }
        }
        for (phase, secs) in local {
            match phases.iter_mut().find(|(p, _)| *p == phase) {
                Some((_, max)) => *max = max.max(secs),
                None => phases.push((phase, secs)),
            }
        }
    }
    phases
}

/// For every driver, a time lever aimed at each pipeline phase in turn
/// ends structured: `Ok` (shed or not) or the agreed
/// `BudgetExceeded { budget: PhaseSeconds }`, and a targetable phase
/// reports its breach no earlier than itself.
#[test]
fn time_levers_breach_structurally_at_every_phase_boundary() {
    let mut any_exceeded = false;
    let mut any_shed = false;
    let mut levers = Vec::new();
    for cell in one_and_three(&cases().budget) {
        let phases = phase_durations(&outcome(&Run::plain(cell)));
        for phase in Phase::ALL {
            assert!(
                phases.iter().any(|(p, _)| p == &phase),
                "{cell}: phase {phase} never entered"
            );
        }
        let solo = cell.procs == 1;
        let mut prefix_max = 0.0f64;
        for (k, &(target, secs)) in phases.iter().enumerate() {
            if secs <= 0.0 {
                continue;
            }
            // A phase longer than everything before it can be targeted
            // exactly: the lever splits the gap, so earlier phases fit
            // and this one overruns. Otherwise the lever still forces an
            // overrun — just at the earlier, longer phase. Only sound on
            // single-rank runs: at P > 1 the unbudgeted probe lets ranks
            // drift across boundaries, so its per-phase durations
            // attribute peer waits differently than the budgeted run's
            // per-phase accounts (the gate collectives resync every
            // boundary), and a lever below a probe duration may
            // legitimately fit — or trip a different phase.
            let targetable = solo && k > 0 && secs > prefix_max;
            let lever = if targetable {
                (prefix_max + secs) / 2.0
            } else {
                secs * 0.999
            };
            let run = Run::new(
                cell,
                budget(ResourceBudget {
                    max_phase_seconds: Some(lever),
                    ..ResourceBudget::unlimited()
                }),
            );
            let out = outcome(&run);
            match &out.result {
                Err(RouteError::BudgetExceeded { phase, budget, .. }) => {
                    any_exceeded = true;
                    assert_eq!(*budget, BudgetKind::PhaseSeconds, "{run} at {target}");
                    assert!(
                        !targetable || phase.index() >= target.index(),
                        "{run}: breach reported at {phase}, before the target {target}"
                    );
                }
                Ok(_) => {
                    // On a solo run the probe timing is exact, so a
                    // completed run must have shed its way under the
                    // lever. At P > 1 the budgeted run's resynced phases
                    // may fit outright (see `targetable` above).
                    assert!(
                        !solo || out.budget_degraded,
                        "{run}: overran without shedding"
                    );
                    any_shed |= out.budget_degraded;
                }
            }
            prefix_max = prefix_max.max(secs);
            levers.push(run);
        }
    }
    assert!(any_exceeded, "no lever produced a structured budget error");
    assert!(any_shed, "no lever produced a graceful shed");
    // Outcomes are bit-deterministic: each lever run twice is the same.
    check(Relation::rerun(levers));
}

#[test]
fn byte_caps_trip_as_rank_bytes_and_generous_budgets_change_nothing() {
    let cells = one_and_three(&cases().budget);
    let mut runs = Vec::new();
    for &cell in &cells {
        let run = Run::new(cell, tight_bytes(cell));
        match &outcome(&run).result {
            Err(RouteError::BudgetExceeded { budget, .. }) => {
                assert_eq!(*budget, BudgetKind::RankBytes, "{run}")
            }
            Ok(_) => panic!("{run}: half the probe's peak footprint must breach"),
        }
        runs.push(run);
        runs.push(Run::plain(cell));
        runs.push(Run::new(cell, generous_budget(cell)));
    }
    // Generous limits on every axis behave as if unlimited: the same
    // result, no shed, no error.
    check(Relation::generous_budget(cells));
    check(Relation::rerun(runs));
}

#[test]
fn recovery_round_budget_is_a_structured_error_not_a_fallback() {
    let mut runs = Vec::new();
    for cell in grid([&cases().budget], &[3], &Algorithm::ALL) {
        let rounds = |max_recovery_rounds| {
            let budget = ResourceBudget {
                max_recovery_rounds: Some(max_recovery_rounds),
                ..ResourceBudget::unlimited()
            };
            let kill = kills(vec![(cell.procs - 1, 2)]);
            Run::new(cell, Setup { budget, ..kill })
        };
        // A kill with zero recovery rounds allowed surfaces as the
        // agreed RecoveryRounds error; with headroom it recovers.
        let exhausted = rounds(0);
        match &outcome(&exhausted).result {
            Err(RouteError::BudgetExceeded { budget, .. }) => {
                assert_eq!(*budget, BudgetKind::RecoveryRounds, "{exhausted}")
            }
            Ok(_) => panic!("{exhausted}: zero recovery rounds must error"),
        }
        let headroom = rounds(8);
        assert!(outcome(&headroom).result.is_ok(), "{headroom}");
        runs.extend([exhausted, headroom]);
    }
    check(Relation::rerun(runs));
}

/// The serial router's budget behaviour, pinned: the breach payload bit
/// for bit, and a shed run's route, clock and `verify.violations: 0`
/// proof inside the assemble window.
#[test]
fn serial_breach_payload_and_shed_proof_are_pinned() {
    let lever = |max_phase_seconds| {
        let serial = grid([&cases().budget], &[1], &[Algorithm::Serial])[0];
        outcome(&Run::new(
            serial,
            budget(ResourceBudget {
                max_phase_seconds: Some(max_phase_seconds),
                ..ResourceBudget::unlimited()
            }),
        ))
    };

    // Setup alone takes 0.7 virtual seconds: a 0.5 s lever breaches at
    // the first boundary that closes its books.
    let out = lever(0.5);
    assert_eq!(
        out.result,
        Err(RouteError::BudgetExceeded {
            rank: 0,
            phase: Phase::Steiner,
            budget: BudgetKind::PhaseSeconds,
            limit: 0.5,
            observed: 0.7,
        })
    );
    assert_eq!(out.time.to_bits(), 0x3fe6_6666_6666_6666);
    let metrics = &out.metrics[0];
    assert_eq!(metrics.counter(budget_names::BREACHES), Some(1));
    assert_eq!(metrics.counter(names::VERIFY_VIOLATIONS), None);

    // A 1 s lever clears every mandatory phase; coarse (3.4 s unbudgeted)
    // sheds its refinement and the run completes with the proof.
    let out = lever(1.0);
    let routed = out.result.as_ref().expect("shed, not breached");
    assert_eq!(routed.track_count(), 89);
    assert_eq!(out.time.to_bits(), 0x4007_5b32_f2ac_185a);
    let metrics = &out.metrics[0];
    assert_eq!(metrics.counter(budget_names::SHED_EVENTS), Some(1));
    assert_eq!(metrics.counter(budget_names::BREACHES), None);
    let assemble = metrics.window(Phase::Assemble.name()).expect("window");
    assert_eq!(assemble.counter(names::VERIFY_VIOLATIONS), Some(0));
}
