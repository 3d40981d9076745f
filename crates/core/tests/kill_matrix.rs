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

use pgr_circuit::{generate, Circuit, GeneratorConfig};
use pgr_mpi::{
    build_profile, ChaosConfig, ChaosLayer, InstrumentConfig, MachineModel, MetricsConfig, Phase,
    ReliabilityConfig, TraceConfig,
};
use pgr_obs::{recovery_names, BlameClass};
use pgr_router::metrics::names;
use pgr_router::verify::assert_verified;
use pgr_router::{route_parallel_guarded, Algorithm, GuardedOutcome, PartitionKind, RouterConfig};
use std::sync::Arc;

fn small(tag: &str) -> Circuit {
    generate(&GeneratorConfig::small(tag, 17))
}

/// A kills-only schedule: no message faults, so survivors' virtual
/// clocks depend only on the kill schedule and the resume path.
fn quiet_chaos(kills: Vec<(usize, u64)>) -> ChaosConfig {
    let mut cfg = ChaosConfig::messages_only(31);
    cfg.drop = 0.0;
    cfg.reorder = 0.0;
    cfg.duplicate = 0.0;
    cfg.delay = 0.0;
    cfg.kills = kills;
    cfg
}

fn instr(cfg: ChaosConfig) -> InstrumentConfig {
    InstrumentConfig {
        metrics: MetricsConfig::on(),
        fault: Some(Arc::new(ChaosLayer::new(cfg))),
        reliability: ReliabilityConfig::on(),
        ..InstrumentConfig::off()
    }
}

fn instr_traced(cfg: ChaosConfig) -> InstrumentConfig {
    InstrumentConfig {
        trace: TraceConfig::on(),
        ..instr(cfg)
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

/// Sum of `name` inside the window of `phase` across all rank shards.
fn window_sum(out: &GuardedOutcome, phase: Phase, name: &'static str) -> u64 {
    out.metrics
        .iter()
        .filter_map(|m| m.window(phase.name()).and_then(|w| w.counter(name)))
        .sum()
}

fn metrics_only() -> InstrumentConfig {
    InstrumentConfig {
        metrics: MetricsConfig::on(),
        ..InstrumentConfig::off()
    }
}

/// The full matrix: three drivers × P ∈ {3, 4} × a kill at every phase
/// boundary. Each cell must reproduce the fresh shrunken-world result
/// bit-for-bit and account its redone work exactly: resume replays
/// `b − min(b, 2)` phases per survivor, a boundary-0 kill is a full
/// restart that redoes nothing (no work had completed).
#[test]
fn kill_at_every_boundary_resumes_bit_identically_to_fresh_shrunken_world() {
    let c = small("kill-matrix");
    for algo in Algorithm::ALL {
        for procs in [3usize, 4] {
            let fresh = route(&c, algo, procs - 1, metrics_only());
            let survivors = (procs - 1) as u64;
            for b in 0..Phase::ALL.len() as u64 {
                let ctx = format!("{} P={procs} kill@{b}", algo.name());
                let out = route(&c, algo, procs, instr(quiet_chaos(vec![(procs - 1, b)])));
                assert!(!out.degraded, "{ctx}: degraded instead of recovering");
                assert_eq!(out.result, fresh.result, "{ctx}: result diverged");
                // Every recovered run self-verifies before returning.
                assert!(
                    out.metrics
                        .iter()
                        .any(|m| m.counter(names::VERIFY_VIOLATIONS).is_some()),
                    "{ctx}: the post-recovery self-check did not run"
                );
                assert_eq!(counter_sum(&out, names::VERIFY_VIOLATIONS), 0, "{ctx}");
                assert_eq!(
                    counter_sum(&out, recovery_names::CHECKPOINT_CRC_FAILURES),
                    0,
                    "{ctx}: spurious CRC failure"
                );
                if b == 0 {
                    // Killed entering the very first phase: no boundary
                    // was ever committed, the round restarts from
                    // scratch — but nothing had completed, so nothing
                    // counts as redone.
                    assert_eq!(
                        counter_sum(&out, recovery_names::FULL_RESTARTS),
                        survivors,
                        "{ctx}: boundary-0 kill must fully restart"
                    );
                    assert_eq!(
                        counter_sum(&out, recovery_names::CHECKPOINT_RESTORES),
                        0,
                        "{ctx}"
                    );
                    assert_eq!(counter_sum(&out, recovery_names::REDONE_PHASES), 0, "{ctx}");
                } else {
                    let resume_from = b.min(2);
                    assert_eq!(
                        counter_sum(&out, recovery_names::FULL_RESTARTS),
                        0,
                        "{ctx}: resume fell back to a restart"
                    );
                    assert_eq!(
                        counter_sum(&out, recovery_names::CHECKPOINT_RESTORES),
                        survivors,
                        "{ctx}: one restore per survivor"
                    );
                    assert_eq!(
                        counter_sum(&out, recovery_names::REDONE_PHASES),
                        (b - resume_from) * survivors,
                        "{ctx}: redone-phase accounting"
                    );
                    assert!(
                        counter_sum(&out, recovery_names::CHECKPOINT_COMMITS) > 0,
                        "{ctx}: no snapshots were committed"
                    );
                }
            }
        }
    }
}

/// Two ranks die in different phases: the second kill fires during the
/// *resumed* attempt (the boundary counter is cumulative across
/// attempts — resume re-enters coarse at boundary 4, so boundary 8 is
/// the assemble entry). Each round's recovery counters must land in
/// the window of the phase whose boundary failed, under the resumed
/// numbering — and the final result still equals a fresh 2-rank run.
#[test]
fn double_kill_attributes_each_round_to_its_failed_phase_window() {
    let c = small("kill-double");
    for algo in Algorithm::ALL {
        let name = algo.name();
        // Round 1: rank 3 dies entering coarse (boundary 3), 3 survivors
        // resume from the coarse checkpoint (nothing redone). Round 2:
        // rank 2 dies entering assemble of the resumed attempt
        // (boundary 8 = 3 + 1 + (6 − 2)), 2 survivors resume from
        // coarse again, redoing 4 phases each.
        let out = route(&c, algo, 4, instr(quiet_chaos(vec![(3, 2), (2, 7)])));
        assert!(!out.degraded, "{name}: degraded instead of recovering");
        assert_verified(&c, out.result.as_ref().unwrap());

        let fresh = route(&c, algo, 2, metrics_only());
        assert_eq!(out.result, fresh.result, "{name}: result diverged");

        assert_eq!(
            window_sum(&out, Phase::Coarse, names::RECOVERY_EVENTS),
            3,
            "{name}: round 1 lands in the coarse window"
        );
        assert_eq!(
            window_sum(&out, Phase::Assemble, names::RECOVERY_EVENTS),
            2,
            "{name}: round 2 lands in the assemble window"
        );
        assert_eq!(
            window_sum(&out, Phase::Coarse, names::RANKS_LOST),
            3,
            "{name}"
        );
        assert_eq!(
            window_sum(&out, Phase::Assemble, names::RANKS_LOST),
            2,
            "{name}"
        );
        assert_eq!(counter_sum(&out, names::RECOVERY_EVENTS), 5, "{name}");
        assert_eq!(
            counter_sum(&out, recovery_names::CHECKPOINT_RESTORES),
            5,
            "{name}: 3 + 2 restores"
        );
        assert_eq!(
            counter_sum(&out, recovery_names::REDONE_PHASES),
            8,
            "{name}: round 2 redoes coarse..switchable on both survivors"
        );
        assert_eq!(
            counter_sum(&out, recovery_names::FULL_RESTARTS),
            0,
            "{name}"
        );
        assert_eq!(counter_sum(&out, names::VERIFY_VIOLATIONS), 0, "{name}");
    }
}

/// The second victim dies *while replaying* the resumed phases, before
/// its caught-up mark: round 1 resumes from coarse after a feedthrough
/// kill; the second kill fires entering coarse of the resumed attempt
/// (boundary 5). Recovery must nest cleanly: the third world resumes
/// from the resumed attempt's own re-committed coarse checkpoint.
#[test]
fn kill_during_resume_recovers_from_the_recommitted_checkpoint() {
    let c = small("kill-nested");
    for algo in Algorithm::ALL {
        let name = algo.name();
        let out = route(&c, algo, 4, instr(quiet_chaos(vec![(3, 3), (2, 4)])));
        assert!(!out.degraded, "{name}: degraded instead of recovering");
        assert_verified(&c, out.result.as_ref().unwrap());

        let fresh = route(&c, algo, 2, metrics_only());
        assert_eq!(out.result, fresh.result, "{name}: result diverged");

        assert_eq!(counter_sum(&out, names::RECOVERY_EVENTS), 5, "{name}");
        assert_eq!(
            counter_sum(&out, recovery_names::CHECKPOINT_RESTORES),
            5,
            "{name}"
        );
        assert_eq!(
            counter_sum(&out, recovery_names::REDONE_PHASES),
            3,
            "{name}: round 1 redoes coarse on 3 survivors, round 2 nothing"
        );
        assert_eq!(
            counter_sum(&out, recovery_names::FULL_RESTARTS),
            0,
            "{name}"
        );
        assert_eq!(counter_sum(&out, names::VERIFY_VIOLATIONS), 0, "{name}");
    }
}

/// A checkpoint failing its CRC-32 re-verification cannot seed a
/// resume: the round downgrades to a full restart — counted as a CRC
/// failure plus a restart, never a restore — and the result still
/// equals the fresh shrunken world. Against the same uncorrupted
/// schedule, the restart provably redoes strictly more phases.
#[test]
fn corrupt_checkpoint_downgrades_to_full_restart() {
    let c = small("kill-corrupt");
    let mut corrupted_cfg = quiet_chaos(vec![(3, 4)]);
    // Break attempt 0's coarse boundary — exactly the one the commit
    // protocol will agree on after a connect-entry kill.
    corrupted_cfg.ckpt_corrupt = vec![(0, 2)];
    let corrupted = route(&c, Algorithm::Hybrid, 4, instr(corrupted_cfg));
    let resumed = route(&c, Algorithm::Hybrid, 4, instr(quiet_chaos(vec![(3, 4)])));
    let fresh = route(&c, Algorithm::Hybrid, 3, metrics_only());

    assert!(!corrupted.degraded);
    assert_eq!(corrupted.result, fresh.result, "restart result diverged");
    assert_eq!(resumed.result, fresh.result, "resume result diverged");

    assert_eq!(
        counter_sum(&corrupted, recovery_names::CHECKPOINT_CRC_FAILURES),
        3,
        "every survivor rejects the corrupt boundary"
    );
    assert_eq!(
        counter_sum(&corrupted, recovery_names::FULL_RESTARTS),
        3,
        "the round falls back to a full restart"
    );
    assert_eq!(
        counter_sum(&corrupted, recovery_names::CHECKPOINT_RESTORES),
        0,
        "a corrupt snapshot must never restore"
    );

    let redone_restart = counter_sum(&corrupted, recovery_names::REDONE_PHASES);
    let redone_resume = counter_sum(&resumed, recovery_names::REDONE_PHASES);
    assert_eq!(redone_restart, 12, "restart redoes all 4 lost phases × 3");
    assert_eq!(
        redone_resume, 6,
        "resume redoes only coarse..feedthrough × 3"
    );
    assert!(
        redone_resume < redone_restart,
        "resume must beat restart on redone work"
    );
    assert_eq!(counter_sum(&corrupted, names::VERIFY_VIOLATIONS), 0);
}

/// Under a resumed kill schedule the causal profiler's partition still
/// telescopes to the virtual makespan exactly, and the replayed phases
/// (between the restart and caught-up marks) surface under their own
/// `resume` blame class, distinct from the pre-restart `recovery` loss.
#[test]
fn resume_blame_telescopes_exactly_and_surfaces_its_own_class() {
    let c = small("kill-blame");
    let m = MachineModel::sparc_center_1000();
    for algo in Algorithm::ALL {
        let name = algo.name();
        // Feedthrough-entry kill: resume from coarse, so the replayed
        // coarse pass is a non-empty window between the restart and
        // caught-up marks on every survivor.
        let out = route(&c, algo, 4, instr_traced(quiet_chaos(vec![(3, 3)])));
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

        let run = pgr_obs::RunMeta::new("kill-blame", name, 4, "sparc_center_1000", 1.0, 9);
        let table = p.blame_markdown(&run);
        assert!(table.contains("resume"), "{name}: blame table lost resume");
    }
}
