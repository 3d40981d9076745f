//! Robustness smokes: message faults and rank kills (`chaos`), the
//! adversarial workload × chaos × budget matrix (`stress`), and routing
//! an instance an order of magnitude past the paper's (`big-circuit`).

use super::cell::{cfg, clamp_procs, phase_seconds, routed, run_cell, Opts};
use crate::{fmt_secs, SEED};
use pgr_circuit::Circuit;
use pgr_mpi::{
    ChaosConfig, ChaosLayer, InstrumentConfig, MachineModel, MetricsConfig, ReliabilityConfig,
};
use pgr_obs::recovery_names;
use pgr_router::metrics::names;
use pgr_router::{Algorithm, PartitionKind, RecoveryPolicy, RouterConfig};
use std::sync::Arc;

/// Beyond the paper: chaos smoke — every algorithm routed under a seeded
/// fault schedule (drop + delay + reorder + duplicate + corruption) with
/// the reliable transport on, plus the highest rank killed at a phase
/// boundary. Each degraded result is verified against the circuit; the
/// table shows the protocol effort (retransmits, reorder-buffer fills,
/// suppressed duplicates, corrupt frames healed) and the recovery
/// accounting (rounds survived, ranks lost). A second, kill-heavy pass
/// per circuit runs hybrid under a one-round [`RecoveryPolicy`], forcing
/// the serial fallback — degraded, stamped in the stats, and
/// auto-verified. With `--trace-out` the per-run artifacts are written
/// under `<circuit>_<algo>_chaos_p<P>` / `<circuit>_hybrid_fallback_p<P>`
/// labels with algorithms `"<name>-chaos"` / `"hybrid-fallback"`, so
/// `repro aggregate` can trend robustness separately from the clean
/// runs.
///
/// The schedule is overridable from the CLI: `--kill R@B` (repeatable)
/// replaces the default one-kill schedule; the first pass runs under the
/// router's default [`RecoveryPolicy`]. The printed `redone` / `restore`
/// columns expose the checkpoint-resume accounting (`recovery.redone_phases`,
/// `recovery.checkpoint.restores`): a resumed round redoes only the
/// phases past the agreed boundary, a full restart redoes them all.
pub fn chaos_smoke(opts: &Opts) {
    let machine = MachineModel::sparc_center_1000();
    let cfg = cfg();
    println!("Chaos smoke: message faults + rank kills, reliable transport on");
    opts.note_scale();
    // The protocol-effort and recovery columns: `(title, width, counter
    // summed over the ranks)`.
    let effort: [(&str, usize, &str); 8] = [
        ("retran", 7, pgr_mpi::reliable::RETRANSMITS),
        ("reord", 7, pgr_mpi::reliable::REORDER_BUFFERED),
        ("dup", 7, pgr_mpi::reliable::DUPLICATES_DROPPED),
        ("corrupt", 7, pgr_mpi::reliable::CORRUPT_DROPPED),
        ("recovery", 8, names::RECOVERY_EVENTS),
        ("lost", 6, names::RANKS_LOST),
        ("redone", 7, recovery_names::REDONE_PHASES),
        ("restore", 8, recovery_names::CHECKPOINT_RESTORES),
    ];
    print!(
        "{:<12} {:<10} {:>2} {:>6} {:>8}",
        "circuit", "algorithm", "P", "killed", "tracks"
    );
    for (title, width, _) in effort {
        print!(" {title:>width$}");
    }
    println!();
    // One chaos cell: run under `chaos` with the reliable transport on
    // and metrics collected, then print the protocol-effort row.
    // `fallback` only picks the row's labels.
    let chaos_cell = |c: &Circuit,
                      cfg: &RouterConfig,
                      algo: Algorithm,
                      p: usize,
                      chaos: ChaosConfig,
                      fallback: bool| {
        let killed: Vec<String> = chaos.kills.iter().map(|(r, _)| r.to_string()).collect();
        let killed = if killed.is_empty() {
            "-".into()
        } else {
            killed.join("+")
        };
        let instr = InstrumentConfig {
            metrics: MetricsConfig::on(),
            fault: Some(Arc::new(ChaosLayer::new(chaos))),
            reliability: ReliabilityConfig::on(),
            ..opts.instrument()
        };
        let tag = if fallback { "fallback" } else { "chaos" };
        let label = format!("{}_{}_{tag}_p{p}", c.name, algo.name());
        let stamp = format!("{}-{tag}", algo.name());
        let out = run_cell(
            c,
            cfg,
            (algo, PartitionKind::PinWeight, p),
            machine,
            instr,
            opts.emit(&label, opts.run_meta(&c.name, &stamp, p, &machine)),
        );
        print!(
            "{:<12} {:<10} {:>2} {:>6} {:>8}",
            c.name,
            if fallback { tag } else { algo.name() },
            p,
            killed,
            routed(&out).track_count(),
        );
        for (_, width, counter) in effort {
            let sum: u64 = out.metrics.iter().filter_map(|m| m.counter(counter)).sum();
            print!(" {sum:>width$}");
        }
        println!(
            "{}",
            if fallback {
                "  (serial fallback, verified)"
            } else {
                ""
            }
        );
        out
    };
    for c in opts.circuits() {
        let p = clamp_procs(4, &c);
        if let Some((rank, _)) = opts.kills.iter().find(|(rank, _)| *rank >= p) {
            let name = &c.name;
            eprintln!("repro: --kill rank {rank} is out of range for circuit {name} (P = {p})");
            std::process::exit(2);
        }
        for algo in Algorithm::ALL {
            let mut chaos = ChaosConfig::messages_with_corruption(SEED);
            // Default schedule: the highest rank dies entering its third
            // phase; the survivors restore its coarse-boundary snapshot
            // and resume on P-1. `--kill` replaces the schedule wholesale.
            if p > 1 {
                chaos.kills = if opts.kills.is_empty() {
                    vec![(p - 1, 2)]
                } else {
                    opts.kills.clone()
                };
            }
            chaos_cell(&c, &cfg, algo, p, chaos, false);
        }

        // Kill-heavy pass: the same schedule under a one-round recovery
        // budget breaches the policy, so the run must finish via the
        // serial fallback — degraded, stamped, and auto-verified.
        if p > 1 {
            let mut chaos = ChaosConfig::messages_with_corruption(SEED);
            chaos.kills = vec![(p - 1, 1)];
            let fallback_cfg = RouterConfig {
                recovery: RecoveryPolicy {
                    max_rounds: 1,
                    min_ranks: 1,
                },
                ..cfg.clone()
            };
            let out = chaos_cell(&c, &fallback_cfg, Algorithm::Hybrid, p, chaos, true);
            assert!(out.degraded, "{}: the one-round budget must breach", c.name);
        }
    }
    println!();
}

/// One stress-matrix cell's observed result, compared bit-for-bit
/// across the determinism re-run.
#[derive(Debug, Clone, PartialEq)]
struct StressCell {
    /// `routed` | `degraded` | `budget_exceeded` | `panic`.
    outcome: &'static str,
    /// Track count of a completed route (None on error/panic).
    tracks: Option<i64>,
    /// Virtual makespan bits (0 on panic).
    time_bits: u64,
    /// Breach / shed / recovery detail for the table.
    note: String,
}

/// Budget lever applied to one stress cell. `Time` and `Mem` are
/// derived from the family's own unbudgeted serial probe, so the matrix
/// self-calibrates across scales; `Rounds` arms
/// [`pgr_mpi::ResourceBudget::max_recovery_rounds`] `= 0` under a kill
/// schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
enum StressBudget {
    Unlimited,
    Time,
    Mem,
    Rounds,
}

impl StressBudget {
    fn name(self) -> &'static str {
        match self {
            StressBudget::Unlimited => "unlimited",
            StressBudget::Time => "time",
            StressBudget::Mem => "mem",
            StressBudget::Rounds => "rounds",
        }
    }

    /// Materialize against the family's serial probe.
    fn materialize(self, probe: &StressProbe) -> pgr_mpi::ResourceBudget {
        let mut b = pgr_mpi::ResourceBudget::unlimited();
        match self {
            StressBudget::Unlimited => {}
            StressBudget::Time => b.max_phase_seconds = Some(probe.time_limit),
            StressBudget::Mem => b.max_rank_bytes = Some((probe.peak_mem / 2).max(1)),
            StressBudget::Rounds => b.max_recovery_rounds = Some(0),
        }
        b
    }
}

/// One family's unbudgeted serial probe: the self-calibration every
/// budget lever of its row block derives from.
struct StressProbe {
    peak_mem: u64,
    /// The per-phase time lever. When the optional coarse phase is the
    /// slowest phase of the probe, the lever lands midway between it and
    /// the slowest mandatory phase — mandatory phases fit, coarse
    /// overruns and *sheds*, and the run completes `budget_degraded`.
    /// On families whose mandatory work dominates, the lever falls back
    /// to a third of the total, and the overrun lands in a mandatory
    /// phase as the structured hard breach.
    time_limit: f64,
}

fn stress_probe(opts: &Opts, circuit: &Circuit, machine: MachineModel) -> StressProbe {
    let probe = opts.cell(circuit, &cfg(), Algorithm::Serial, 1, machine, None);
    let s = &probe.stats[0];
    let coarse = phase_seconds(s, "coarse");
    let mandatory_max = s
        .phases
        .iter()
        .filter(|(n, _)| *n != "coarse" && *n != "switchable")
        .map(|(_, d)| *d)
        .fold(0.0f64, f64::max);
    let time_limit = if coarse > mandatory_max && mandatory_max > 0.0 {
        (mandatory_max + coarse) / 2.0
    } else {
        s.time / 3.0
    };
    StressProbe {
        peak_mem: s.peak_mem,
        time_limit,
    }
}

/// Chaos schedule applied to one stress cell (parallel cells only).
#[derive(Debug, Clone, Copy, PartialEq)]
enum StressChaos {
    None,
    Messages,
    Kill,
}

impl StressChaos {
    fn name(self) -> &'static str {
        match self {
            StressChaos::None => "none",
            StressChaos::Messages => "messages",
            StressChaos::Kill => "kill",
        }
    }
}

/// `repro stress`: the adversarial workload × chaos × algorithm matrix.
///
/// Every [`pgr_circuit::scenarios::ScenarioFamily`] (or the `--family`
/// subset) is generated at `--scale`, probed once serially without
/// limits, and then driven through every driver under budget levers
/// derived from its own probe and under seeded chaos schedules. Each
/// cell ends in a structured outcome — `routed`, `degraded` (completed
/// by shedding refinement or by the recovery fallback, verified), or
/// `budget_exceeded` (the agreed [`pgr_router::RouteError`]) — and is
/// run twice: any bitwise divergence between the two runs, any panic,
/// or a full matrix that fails to exhibit all three outcomes (including
/// a congestion-stress shed) exits non-zero. With `--trace-out` every
/// cell's stats/metrics artifacts are stamped with the self-describing
/// scenario name and the `budget_degraded` flag, so `repro aggregate`
/// can trend shed rates.
pub fn stress(opts: &Opts) {
    use pgr_circuit::scenarios::{ScenarioFamily, ScenarioSpec};
    use pgr_router::RouteError;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let machine = MachineModel::sparc_center_1000();
    let full_matrix = opts.families.is_none();
    let all = ScenarioFamily::ALL.to_vec();
    let families = opts.families.clone().unwrap_or(all);
    println!("Stress matrix: adversarial workloads × chaos × drivers (SparcCenter model)");
    opts.note_scale();
    println!(
        "{:<20} {:<9} {:>2} {:<9} {:<10} {:<16} {:>7}  detail",
        "family", "algorithm", "P", "chaos", "budget", "outcome", "tracks"
    );

    let mut panics = 0usize;
    let mut divergent = 0usize;
    // Outcomes some cell ended in, plus "shed" once congestion-stress
    // degrades under the time lever.
    let mut seen: Vec<&str> = Vec::new();

    for family in families {
        let spec = ScenarioSpec::new(family, opts.scale, SEED);
        let circuit = spec.generate();
        circuit
            .validate()
            .unwrap_or_else(|e| panic!("{}: generated circuit invalid: {e:?}", spec.name()));
        let probe = stress_probe(opts, &circuit, machine);

        // (algorithm, procs, chaos, budget) cells of this family's row
        // block. Serial takes the budget levers without chaos; every
        // parallel driver takes budgets, message chaos, and — where the
        // clamped world is big enough to lose a rank — kill chaos with
        // the recovery-round budget.
        let mut cells: Vec<(Algorithm, usize, StressChaos, StressBudget)> = Vec::new();
        for algo in Algorithm::DRIVERS {
            let p = clamp_procs(algo.ranks(3), &circuit);
            for budget in [
                StressBudget::Unlimited,
                StressBudget::Time,
                StressBudget::Mem,
            ] {
                cells.push((algo, p, StressChaos::None, budget));
            }
            if algo == Algorithm::Serial {
                continue;
            }
            for budget in [StressBudget::Unlimited, StressBudget::Time] {
                cells.push((algo, p, StressChaos::Messages, budget));
            }
            if p > 1 {
                cells.push((algo, p, StressChaos::Kill, StressBudget::Unlimited));
                cells.push((algo, p, StressChaos::Kill, StressBudget::Rounds));
            }
        }

        for (algo, p, chaos, budget) in cells {
            let algo_name = algo.name();
            let cell = |write_artifacts: bool| -> StressCell {
                let cfg = RouterConfig {
                    budget: budget.materialize(&probe),
                    ..cfg()
                };
                // Metrics on for every cell, serial included: the serial
                // time lever is the cell that actually sheds (parallel
                // gate collectives resync every boundary), so its dumps
                // carry the shed-rate series the aggregator trends.
                let mut instr = InstrumentConfig {
                    metrics: MetricsConfig::on(),
                    ..opts.instrument()
                };
                let schedule = match chaos {
                    StressChaos::None => None,
                    StressChaos::Messages => Some(ChaosConfig::messages_with_corruption(SEED)),
                    // Kills only: no message faults, so the cell
                    // isolates the recovery path.
                    StressChaos::Kill => Some(ChaosConfig {
                        drop: 0.0,
                        reorder: 0.0,
                        duplicate: 0.0,
                        delay: 0.0,
                        kills: vec![(p - 1, 2)],
                        ..ChaosConfig::messages_only(SEED)
                    }),
                };
                if let Some(schedule) = schedule {
                    instr.fault = Some(Arc::new(ChaosLayer::new(schedule)));
                    instr.reliability = ReliabilityConfig::on();
                }
                let label = format!(
                    "stress_{}_{algo_name}_{}_{}_p{p}",
                    family.name(),
                    chaos.name(),
                    budget.name()
                );
                let mut run = opts.run_meta(&circuit.name, algo_name, p, &machine);
                // The cell coordinates ride in the scenario stamp: every
                // other RunMeta field is shared across this family's
                // budget/chaos cells, and the aggregator keys records by
                // it.
                run.scenario = format!("{}/{}/{}", spec.name(), chaos.name(), budget.name());
                let out = run_cell(
                    &circuit,
                    &cfg,
                    (algo, PartitionKind::PinWeight, p),
                    machine,
                    instr,
                    opts.emit(&label, run).filter(|_| write_artifacts),
                );
                let notes = [
                    (out.budget_degraded, "shed refinement"),
                    (out.degraded, "serial fallback"),
                    (chaos == StressChaos::Kill && !out.degraded, "recovered"),
                ];
                let notes: Vec<&str> = notes.iter().filter(|n| n.0).map(|n| n.1).collect();
                let (outcome, note) = match &out.result {
                    Ok(_) if out.degraded || out.budget_degraded => ("degraded", notes.join(", ")),
                    Ok(_) => ("routed", notes.join(", ")),
                    Err(e @ RouteError::BudgetExceeded { .. }) => {
                        ("budget_exceeded", e.to_string())
                    }
                };
                StressCell {
                    outcome,
                    tracks: out.result.as_ref().ok().map(|r| r.track_count()),
                    time_bits: out.time.to_bits(),
                    note,
                }
            };

            let first = catch_unwind(AssertUnwindSafe(|| cell(true)));
            let second = catch_unwind(AssertUnwindSafe(|| cell(false)));
            let cell = match (&first, &second) {
                (Ok(a), Ok(b)) => {
                    if a != b {
                        divergent += 1;
                        eprintln!(
                            "stress: NONDETERMINISTIC cell {} {} {} {}: {a:?} vs {b:?}",
                            spec.name(),
                            algo_name,
                            chaos.name(),
                            budget.name()
                        );
                    }
                    a.clone()
                }
                _ => {
                    panics += 1;
                    StressCell {
                        outcome: "panic",
                        tracks: None,
                        time_bits: 0,
                        note: "routing panicked — see stderr".into(),
                    }
                }
            };
            seen.push(cell.outcome);
            if cell.outcome == "degraded"
                && family == ScenarioFamily::CongestionStress
                && budget == StressBudget::Time
            {
                seen.push("shed");
            }
            println!(
                "{:<20} {:<9} {:>2} {:<9} {:<10} {:<16} {:>7}  {}",
                family.name(),
                algo_name,
                p,
                chaos.name(),
                budget.name(),
                cell.outcome,
                cell.tracks.map_or("-".to_string(), |t| t.to_string()),
                cell.note
            );
        }
    }

    let mut failures = Vec::new();
    if panics > 0 {
        failures.push(format!("{panics} cell(s) panicked"));
    }
    if divergent > 0 {
        failures.push(format!("{divergent} cell(s) were nondeterministic"));
    }
    let must_see = [
        ("routed", "no cell routed cleanly"),
        ("degraded", "no cell degraded gracefully"),
        (
            "budget_exceeded",
            "no cell reported a structured budget error",
        ),
        ("shed", "congestion-stress never shed under the time budget"),
    ];
    for (outcome, complaint) in must_see {
        if full_matrix && !seen.contains(&outcome) {
            failures.push(complaint.into());
        }
    }
    if failures.is_empty() {
        println!("stress matrix clean: every cell structured, deterministic, panic-free");
        println!();
    } else {
        for f in &failures {
            eprintln!("stress matrix FAILED: {f}");
        }
        std::process::exit(1);
    }
}

/// Big-circuit smoke: generate a synthetic circuit an order of magnitude
/// beyond the paper's largest (~200k nets at scale 1.0) and route it
/// serially, proving the chunked columnar store and the per-net sweep
/// paths hold up past the MCNC sizes. Prints the chunk count so CI can
/// gate that the chunked path (not a single degenerate chunk) was
/// exercised.
pub fn big_circuit(opts: &Opts) {
    use pgr_circuit::{generate, GeneratorConfig, NET_CHUNK_SIZE};

    let nets = ((200_000f64 * opts.scale).round() as usize).max(4_000);
    let rows = ((160f64 * opts.scale.sqrt()).round() as usize).max(8);
    let clock_nets = vec![(nets / 100).max(64), (nets / 200).max(32)];
    let clock_pins: usize = clock_nets.iter().sum();
    let gen_cfg = GeneratorConfig {
        name: "big-synth".into(),
        rows,
        cells: nets.max(rows * 4),
        pins: nets * 3 + nets / 2 + clock_pins,
        nets,
        seed: SEED,
        cell_width: (4, 10),
        equivalent_fraction: 0.35,
        locality: 0.85,
        clock_nets,
    };
    let wall = std::time::Instant::now();
    let c = generate(&gen_cfg);
    let gen_secs = wall.elapsed().as_secs_f64();
    let chunks = c.nets_chunks().count();
    println!("Big-circuit smoke: chunked columnar store beyond MCNC sizes");
    println!(
        "generated nets={} pins={} cells={} rows={} chunks={} (chunk size {}) in {:.1}s",
        c.num_nets(),
        c.num_pins(),
        c.num_cells(),
        c.num_rows(),
        chunks,
        NET_CHUNK_SIZE,
        gen_secs
    );
    assert_eq!(chunks, c.num_nets().div_ceil(NET_CHUNK_SIZE));
    let wall = std::time::Instant::now();
    let machine = MachineModel::sparc_center_1000();
    let base = opts.cell(&c, &cfg(), Algorithm::Serial, 1, machine, None);
    println!(
        "routed serially: tracks={} wirelength={} simulated {} (wall {:.1}s), verified",
        routed(&base).track_count(),
        routed(&base).wirelength,
        fmt_secs(base.time),
        wall.elapsed().as_secs_f64()
    );
    println!();
}
