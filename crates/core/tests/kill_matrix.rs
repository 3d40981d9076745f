//! Kill-matrix determinism for checkpointed recovery.
//!
//! The resume contract, exhaustively: for every parallel driver, world
//! size P ∈ {3, 4}, and phase boundary, killing one rank at that
//! boundary must leave a routing result **bit-identical** to a fresh,
//! fault-free run of the surviving (P−1)-rank world — whether the round
//! resumed from a checkpoint or fell back to a full restart. On top of
//! the matrix:
//!
//! * **Checkpoint accounting.** A boundary-`b` kill resumes from
//!   `min(b, 2)` (the portable horizon is the coarse boundary), so the
//!   redone-phase counter must read exactly `b − min(b, 2)` per
//!   survivor, with one restore each and no full restarts; a boundary-0
//!   kill is a full restart with nothing redone.
//! * **Double kills.** Two ranks dying in different phases (the second
//!   during the *resumed* attempt, whose boundary numbering continues
//!   across attempts) recover in two rounds, and each round's recovery
//!   counters land in the window of the phase whose boundary failed.
//! * **Kill during resume.** A second victim dying while replaying the
//!   resumed phases (before the caught-up mark) recovers the same way.
//! * **Corrupt checkpoints.** A snapshot failing its CRC-32
//!   re-verification downgrades the round to a full restart — counted,
//!   and strictly more expensive in redone phases than the resume.
//! * **Resume blame.** The causal profiler's blame partition still
//!   telescopes to the makespan exactly under kill schedules, with the
//!   replayed work surfacing under its own `resume` class.

mod harness;

use harness::{
    cases, check, counter_sum, grid, kills, outcome, small, window_sum, Relation, Run, KILL_P,
};
use pgr_mpi::{build_profile, MachineModel, Phase, RunMeta};
use pgr_obs::{recovery_names, BlameClass};
use pgr_router::metrics::names;
use pgr_router::{Algorithm, GuardedOutcome};

/// The full matrix: three drivers × P ∈ {3, 4} × a kill at every phase
/// boundary. Each cell must reproduce the fresh shrunken-world result
/// bit-for-bit and account its redone work exactly: resume replays
/// `b − min(b, 2)` phases per survivor, a boundary-0 kill is a full
/// restart that redoes nothing (no work had completed).
#[test]
fn kill_at_every_boundary_resumes_bit_identically_to_fresh_shrunken_world() {
    let mut runs = Vec::new();
    for cell in grid([&cases().small], &KILL_P, &Algorithm::ALL) {
        for b in 0..Phase::ALL.len() as u64 {
            runs.push(Run::new(cell, kills(vec![(cell.procs - 1, b)])));
        }
    }
    check(Relation::kill_resume(runs));
}

/// Two ranks die in different phases: the second kill fires during the
/// *resumed* attempt (the boundary counter is cumulative across
/// attempts — resume re-enters coarse at boundary 4, so boundary 8 is
/// the assemble entry). Each round's recovery counters must land in
/// the window of the phase whose boundary failed, under the resumed
/// numbering — and the final result still equals a fresh 2-rank run.
#[test]
fn double_kill_attributes_each_round_to_its_failed_phase_window() {
    for algo in Algorithm::ALL {
        // Round 1: rank 3 dies entering coarse (boundary 3), 3 survivors
        // resume from the coarse checkpoint (nothing redone). Round 2:
        // rank 2 dies entering assemble of the resumed attempt
        // (boundary 8 = 3 + 1 + (6 − 2)), 2 survivors resume from
        // coarse again, redoing 4 phases each.
        let run = Run::new(small(algo, 4), kills(vec![(3, 2), (2, 7)]));
        let out = outcome(&run);
        assert!(!out.degraded, "{run}: degraded instead of recovering");
        assert_eq!(
            out.result,
            outcome(&Run::plain(small(algo, 2))).result,
            "{run}"
        );
        let window = |phase, name| window_sum(&out, phase, name);
        assert_eq!(window(Phase::Coarse, names::RECOVERY_EVENTS), 3, "{run}");
        assert_eq!(window(Phase::Assemble, names::RECOVERY_EVENTS), 2, "{run}");
        assert_eq!(window(Phase::Coarse, names::RANKS_LOST), 3, "{run}");
        assert_eq!(window(Phase::Assemble, names::RANKS_LOST), 2, "{run}");
        assert_eq!(counter_sum(&out, names::RECOVERY_EVENTS), 5, "{run}");
        assert_eq!(
            counter_sum(&out, recovery_names::CHECKPOINT_RESTORES),
            5,
            "{run}"
        );
        assert_eq!(counter_sum(&out, recovery_names::REDONE_PHASES), 8, "{run}");
        assert_eq!(counter_sum(&out, recovery_names::FULL_RESTARTS), 0, "{run}");
    }
}

/// The second victim dies *while replaying* the resumed phases, before
/// its caught-up mark: round 1 resumes from coarse after a feedthrough
/// kill; the second kill fires entering coarse of the resumed attempt
/// (boundary 5). Recovery must nest cleanly: the third world resumes
/// from the resumed attempt's own re-committed coarse checkpoint.
#[test]
fn kill_during_resume_recovers_from_the_recommitted_checkpoint() {
    for algo in Algorithm::ALL {
        let run = Run::new(small(algo, 4), kills(vec![(3, 3), (2, 4)]));
        let out = outcome(&run);
        assert!(!out.degraded, "{run}: degraded instead of recovering");
        assert_eq!(
            out.result,
            outcome(&Run::plain(small(algo, 2))).result,
            "{run}"
        );
        assert_eq!(counter_sum(&out, names::RECOVERY_EVENTS), 5, "{run}");
        assert_eq!(
            counter_sum(&out, recovery_names::CHECKPOINT_RESTORES),
            5,
            "{run}"
        );
        // Round 1 redoes coarse on 3 survivors, round 2 nothing.
        assert_eq!(counter_sum(&out, recovery_names::REDONE_PHASES), 3, "{run}");
        assert_eq!(counter_sum(&out, recovery_names::FULL_RESTARTS), 0, "{run}");
    }
}

/// A checkpoint failing its CRC-32 re-verification cannot seed a
/// resume: the round downgrades to a full restart — counted as a CRC
/// failure plus a restart, never a restore — and the result still
/// equals the fresh shrunken world. Against the same uncorrupted
/// schedule, the restart redoes strictly more phases.
#[test]
fn corrupt_checkpoint_downgrades_to_full_restart() {
    let cell = small(Algorithm::Hybrid, 4);
    let mut corrupted = kills(vec![(3, 4)]);
    // Break attempt 0's coarse boundary — exactly the one the commit
    // protocol agrees on after a connect-entry kill.
    corrupted.chaos.as_mut().unwrap().ckpt_corrupt = vec![(0, 2)];
    let corrupted = outcome(&Run::new(cell, corrupted));
    let resumed = outcome(&Run::new(cell, kills(vec![(3, 4)])));
    let fresh = outcome(&Run::plain(small(Algorithm::Hybrid, 3)));

    assert!(!corrupted.degraded);
    assert_eq!(corrupted.result, fresh.result, "restart result diverged");
    assert_eq!(resumed.result, fresh.result, "resume result diverged");
    let count = |out: &GuardedOutcome, name| counter_sum(out, name);
    assert_eq!(
        count(&corrupted, recovery_names::CHECKPOINT_CRC_FAILURES),
        3
    );
    assert_eq!(count(&corrupted, recovery_names::FULL_RESTARTS), 3);
    assert_eq!(count(&corrupted, recovery_names::CHECKPOINT_RESTORES), 0);
    // The restart redoes all 4 lost phases × 3 survivors, the resume
    // only coarse..feedthrough × 3.
    assert_eq!(count(&corrupted, recovery_names::REDONE_PHASES), 12);
    assert_eq!(count(&resumed, recovery_names::REDONE_PHASES), 6);
}

/// Under a resumed kill schedule the causal profiler's partition still
/// telescopes to the virtual makespan exactly, and the replayed phases
/// (between the restart and caught-up marks) surface under their own
/// `resume` blame class, distinct from the pre-restart `recovery` loss.
#[test]
fn resume_blame_telescopes_exactly_and_surfaces_its_own_class() {
    let m = MachineModel::sparc_center_1000();
    for algo in Algorithm::ALL {
        let name = algo.name();
        // Feedthrough-entry kill: resume from coarse, so the replayed
        // coarse pass is a non-empty window between the restart and
        // caught-up marks on every survivor.
        let out = outcome(&Run::new(small(algo, 4), kills(vec![(3, 3)])));
        assert!(!out.degraded, "{name}: degraded; resume blame untestable");

        let p = build_profile(&out.traces, &m);
        assert!(p.warnings.is_empty(), "{name}: warnings {:?}", p.warnings);
        assert!(!p.truncated, "{name}: truncated");
        assert!(p.is_contiguous(), "{name}: path not contiguous");
        assert_eq!(
            p.critical_path_seconds().to_bits(),
            p.makespan.to_bits(),
            "{name}: blame partition no longer telescopes under resume"
        );
        let classes: f64 = p.class_seconds.iter().sum();
        assert!(
            (classes - p.makespan).abs() <= 1e-9 * p.makespan.max(1.0),
            "{name}: class sum {classes} != makespan {}",
            p.makespan
        );
        assert!(
            p.class_seconds[BlameClass::Recovery.index()] > 0.0,
            "{name}: lost pre-restart work must blame recovery"
        );
        assert!(
            p.class_seconds[BlameClass::Resume.index()] > 0.0,
            "{name}: replayed work must blame resume"
        );
        let run = RunMeta::new("kill-blame", name, 4, "sparc_center_1000", 1.0, 9);
        assert!(p.blame_markdown(&run).contains("resume"), "{name}");
    }
}
