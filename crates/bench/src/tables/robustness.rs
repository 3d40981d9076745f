//! Robustness smokes: message faults and rank kills (`chaos`), the
//! adversarial workload × chaos × budget matrix (`stress`), and routing
//! an instance an order of magnitude past the paper's (`big-circuit`).
//! `chaos` and `stress` each list their [`Cell`]s, then one loop runs
//! and prints them.

use super::cell::{cfg, clamp_procs, phase_seconds, routed, run_cell, Opts};
use crate::{fmt_secs, SEED};
use pgr_circuit::Circuit;
use pgr_mpi::{
    ChaosConfig, ChaosLayer, InstrumentConfig, MachineModel, MetricsConfig, ReliabilityConfig,
    ResourceBudget, RunMeta,
};
use pgr_obs::recovery_names;
use pgr_router::metrics::names;
use pgr_router::{Algorithm, GuardedOutcome, PartitionKind, RouterConfig};
use std::rc::Rc;
use std::sync::Arc;

/// One cell of a robustness matrix, as a value: the route (circuit,
/// driver, ranks), the router configuration with the cell's budget or
/// recovery policy already applied, the fault schedule it runs under,
/// and the label and stamped [`RunMeta`] its artefacts are written
/// under. `key` holds the target's own row coordinates.
struct Cell<K> {
    key: K,
    circuit: Rc<Circuit>,
    algo: Algorithm,
    p: usize,
    cfg: RouterConfig,
    chaos: Option<ChaosConfig>,
    label: String,
    run: RunMeta,
}

impl<K> Cell<K> {
    /// Route the cell through [`run_cell`] on the SparcCenter model, with
    /// metrics on for every cell (serial ones included: the serial time
    /// lever is the stress cell that actually sheds, so its dumps carry
    /// the shed-rate series the aggregator trends). A fault schedule
    /// brings its [`ChaosLayer`] and the reliable transport. The cell's
    /// artefacts are written (under `--trace-out`) only when `emit`.
    fn run(&self, opts: &Opts, emit: bool) -> GuardedOutcome {
        let mut instr = InstrumentConfig {
            metrics: MetricsConfig::on(),
            ..opts.instrument()
        };
        if let Some(chaos) = &self.chaos {
            instr.fault = Some(Arc::new(ChaosLayer::new(chaos.clone())));
            instr.reliability = ReliabilityConfig::on();
        }
        let driver = (self.algo, PartitionKind::PinWeight, self.p);
        let emit = opts.emit(&self.label, self.run.clone()).filter(|_| emit);
        let machine = MachineModel::sparc_center_1000();
        run_cell(&self.circuit, &self.cfg, driver, machine, instr, emit)
    }
}

/// Beyond the paper: chaos smoke — every algorithm routed under a seeded
/// fault schedule (drop + delay + reorder + duplicate + corruption) with
/// the reliable transport on, plus the highest rank killed at a phase
/// boundary. Each degraded result is verified against the circuit; the
/// table shows the protocol effort (retransmits, reorder-buffer fills,
/// suppressed duplicates, corrupt frames healed) and the recovery
/// accounting (rounds survived, ranks lost). A second, kill-heavy pass
/// per circuit runs hybrid with one recovery round, forcing
/// the serial fallback — degraded, stamped in the stats, and
/// auto-verified. With `--trace-out` the per-run artifacts are written
/// under `<circuit>_<algo>_chaos_p<P>` / `<circuit>_hybrid_fallback_p<P>`
/// labels with algorithms `"<name>-chaos"` / `"hybrid-fallback"`, so
/// `repro aggregate` can trend robustness separately from the clean
/// runs.
///
/// The schedule is overridable from the CLI: `--kill R@B` (repeatable)
/// replaces the default one-kill schedule; the first pass runs under the
/// router's default `recovery_rounds`. The printed `redone` / `restore`
/// columns expose the checkpoint-resume accounting (`recovery.redone_phases`,
/// `recovery.checkpoint.restores`): a resumed round redoes only the
/// phases past the agreed boundary, a full restart redoes them all.
pub fn chaos_smoke(opts: &Opts) {
    let machine = MachineModel::sparc_center_1000();
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

    // The cells, keyed by the row's algorithm column: every algorithm
    // under the message faults and a kill schedule (tag `chaos`), then
    // the fallback cell (tag `fallback`).
    let mut cells = Vec::new();
    for c in opts.circuits().into_iter().map(Rc::new) {
        let p = clamp_procs(4, &c);
        if let Some((rank, _)) = opts.kills.iter().find(|(rank, _)| *rank >= p) {
            let name = &c.name;
            eprintln!("repro: --kill rank {rank} is out of range for circuit {name} (P = {p})");
            std::process::exit(2);
        }
        let cell = |algo: Algorithm, cfg, kills, tag| Cell {
            key: if tag == "chaos" { algo.name() } else { tag },
            circuit: c.clone(),
            algo,
            p,
            cfg,
            chaos: Some(ChaosConfig {
                kills,
                ..ChaosConfig::messages_with_corruption(SEED)
            }),
            label: format!("{}_{}_{tag}_p{p}", c.name, algo.name()),
            run: opts.run_meta(&c.name, &format!("{}-{tag}", algo.name()), p, &machine),
        };
        // Default schedule: the highest rank dies entering its third
        // phase; the survivors restore its coarse-boundary snapshot and
        // resume on P-1. `--kill` replaces the schedule wholesale.
        let kills = match p {
            1 => Vec::new(),
            _ if opts.kills.is_empty() => vec![(p - 1, 2)],
            _ => opts.kills.clone(),
        };
        for algo in Algorithm::ALL {
            cells.push(cell(algo, cfg(), kills.clone(), "chaos"));
        }
        // Kill-heavy pass: the same schedule under a one-round recovery
        // budget breaches the policy, so the run must finish via the
        // serial fallback — degraded, stamped, and auto-verified.
        if p > 1 {
            let kills = vec![(p - 1, 1)];
            let mut one_round = cfg();
            one_round.recovery_rounds = 1;
            cells.push(cell(Algorithm::Hybrid, one_round, kills, "fallback"));
        }
    }

    for cell in &cells {
        let out = cell.run(opts, true);
        let kills = cell.chaos.iter().flat_map(|c| &c.kills);
        let killed: Vec<String> = kills.map(|(rank, _)| rank.to_string()).collect();
        let killed = killed.join("+");
        print!(
            "{:<12} {:<10} {:>2} {:>6} {:>8}",
            cell.circuit.name,
            cell.key,
            cell.p,
            if killed.is_empty() { "-" } else { &killed },
            routed(&out).track_count(),
        );
        for (_, width, counter) in effort {
            let sum: u64 = out.metrics.iter().filter_map(|m| m.counter(counter)).sum();
            print!(" {sum:>width$}");
        }
        if cell.key == "fallback" {
            println!("  (serial fallback, verified)");
            let name = &cell.circuit.name;
            assert!(out.degraded, "{name}: the one-round budget must breach");
        } else {
            println!();
        }
    }
    println!();
}

/// The budget levers of a stress family's row block — `unlimited`,
/// `time`, `mem` and `rounds` — self-calibrated from the family's unbudgeted serial probe so the
/// matrix holds across scales. `mem` is half the probe's peak. `time`
/// lands midway between the coarse phase and the slowest mandatory one
/// when coarse is the slowest (mandatory phases fit, coarse overruns and
/// *sheds*: the run completes `budget_degraded`), else at a third of the
/// total (the overrun is a mandatory phase's structured hard breach).
/// `rounds` arms [`ResourceBudget::max_recovery_rounds`] `= 0`.
fn levers(opts: &Opts, circuit: &Circuit) -> [ResourceBudget; 4] {
    let machine = MachineModel::sparc_center_1000();
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
    let unlimited = ResourceBudget::unlimited();
    let mut time = unlimited;
    time.max_phase_seconds = Some(time_limit);
    let mut mem = unlimited;
    mem.max_rank_bytes = Some((s.peak_mem / 2).max(1));
    let mut rounds = unlimited;
    rounds.max_recovery_rounds = Some(0);
    [unlimited, time, mem, rounds]
}

/// What a stress cell ended as, compared bit for bit across its two runs:
/// `(outcome, tracks, makespan bits, detail)`. The outcome is `routed`,
/// `degraded` (completed by shedding refinement or by the recovery
/// fallback, verified) or `budget_exceeded`; `killed` says the cell ran
/// under a kill schedule, so a clean finish means it recovered.
fn observe(out: &GuardedOutcome, killed: bool) -> (&'static str, Option<i64>, u64, String) {
    use pgr_router::RouteError;
    let notes = [
        (out.budget_degraded, "shed refinement"),
        (out.degraded, "serial fallback"),
        (killed && !out.degraded, "recovered"),
    ];
    let notes: Vec<&str> = notes.iter().filter(|n| n.0).map(|n| n.1).collect();
    let (outcome, note) = match &out.result {
        Ok(_) if out.degraded || out.budget_degraded => ("degraded", notes.join(", ")),
        Ok(_) => ("routed", notes.join(", ")),
        Err(e @ RouteError::BudgetExceeded { .. }) => ("budget_exceeded", e.to_string()),
    };
    let tracks = out.result.as_ref().ok().map(|r| r.track_count());
    (outcome, tracks, out.time.to_bits(), note)
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
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let machine = MachineModel::sparc_center_1000();
    let full_matrix = opts.families.is_none();
    let families = opts.families.as_deref().unwrap_or(&ScenarioFamily::ALL);
    println!("Stress matrix: adversarial workloads × chaos × drivers (SparcCenter model)");
    opts.note_scale();
    println!(
        "{:<20} {:<9} {:>2} {:<9} {:<10} {:<16} {:>7}  detail",
        "family", "algorithm", "P", "chaos", "budget", "outcome", "tracks"
    );

    // The cells, keyed by `(family, chaos, budget)`. Serial takes the
    // budget levers without chaos; every parallel driver takes budgets,
    // message chaos, and — where the clamped world is big enough to lose
    // a rank (never serial's one) — kill chaos with the recovery-round
    // budget. The cell coordinates ride in the scenario stamp: every
    // other RunMeta field is shared across a family's budget/chaos
    // cells, and the aggregator keys records by it.
    let mut cells = Vec::new();
    for &family in families {
        let spec = ScenarioSpec::new(family, opts.scale, SEED);
        let circuit = Rc::new(spec.generate());
        circuit
            .validate()
            .unwrap_or_else(|e| panic!("{}: generated circuit invalid: {e:?}", spec.name()));
        let [unlimited, time, mem, rounds] = levers(opts, &circuit);
        for algo in Algorithm::DRIVERS {
            let p = clamp_procs(algo.ranks(3), &circuit);
            let msgs = ChaosConfig::messages_with_corruption(SEED);
            // Kills only, no message faults: the cell isolates recovery.
            let kill = ChaosConfig {
                drop: 0.0,
                reorder: 0.0,
                duplicate: 0.0,
                delay: 0.0,
                kills: vec![(p - 1, 2)],
                ..ChaosConfig::messages_only(SEED)
            };
            let parallel = algo != Algorithm::Serial;
            let grid = [
                (true, "none", None, "unlimited", unlimited),
                (true, "none", None, "time", time),
                (true, "none", None, "mem", mem),
                (parallel, "messages", Some(&msgs), "unlimited", unlimited),
                (parallel, "messages", Some(&msgs), "time", time),
                (p > 1, "kill", Some(&kill), "unlimited", unlimited),
                (p > 1, "kill", Some(&kill), "rounds", rounds),
            ];
            for (_, chaos, schedule, lever, budget) in grid.into_iter().filter(|g| g.0) {
                let algo_name = algo.name();
                let mut run = opts.run_meta(&circuit.name, algo_name, p, &machine);
                run.scenario = format!("{}/{chaos}/{lever}", spec.name());
                let label = format!("stress_{}_{algo_name}_{chaos}_{lever}_p{p}", family.name());
                cells.push(Cell {
                    key: (family, chaos, lever),
                    circuit: circuit.clone(),
                    algo,
                    p,
                    cfg: RouterConfig { budget, ..cfg() },
                    chaos: schedule.cloned(),
                    label,
                    run,
                });
            }
        }
    }

    let mut divergent = 0usize;
    // Outcomes some cell ended in, plus "shed" once congestion-stress
    // degrades under the time lever.
    let mut seen: Vec<&str> = Vec::new();
    for cell in &cells {
        let (family, chaos, budget) = cell.key;
        let [first, second] = [true, false].map(|emit| {
            catch_unwind(AssertUnwindSafe(|| {
                observe(&cell.run(opts, emit), chaos == "kill")
            }))
        });
        let (outcome, tracks, _, note) = match (first, second) {
            (Ok(a), Ok(b)) => {
                if a != b {
                    divergent += 1;
                    let label = &cell.label;
                    eprintln!("stress: NONDETERMINISTIC cell {label}: {a:?} vs {b:?}");
                }
                a
            }
            _ => ("panic", None, 0, "routing panicked — see stderr".into()),
        };
        seen.push(outcome);
        if outcome == "degraded" && family == ScenarioFamily::CongestionStress && budget == "time" {
            seen.push("shed");
        }
        println!(
            "{:<20} {:<9} {:>2} {:<9} {:<10} {:<16} {:>7}  {}",
            family.name(),
            cell.algo.name(),
            cell.p,
            chaos,
            budget,
            outcome,
            tracks.map_or("-".to_string(), |t| t.to_string()),
            note
        );
    }

    let mut failures = Vec::new();
    let panics = seen.iter().filter(|&&outcome| outcome == "panic").count();
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
