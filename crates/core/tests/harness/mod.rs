//! The differential oracle's harness: every equality the router
//! promises, as one set of relations between runs, shared by
//! `oracle.rs` and the robustness suites.
//!
//! A relation pairs a *variant* run with its *reference* run and names
//! the fields that must be equal. A suite hands a relation its circuit
//! axis — the seven scenario families at scale 0.25 in `oracle.rs`, the
//! seeded generator circuits in the suites — × driver × world size P
//! (clamped to the circuit's rows). Every run, variant or reference,
//! goes through [`outcome`], which routes it once per process and
//! checks the cell invariant:
//!
//! * it ends in a result or a structured `RouteError`, never a panic;
//! * a result passes [`verify::verify`] and names only real nets;
//! * a recovered, degraded or shed result carries `verify.violations`
//!   at 0, so the engine's own self-check ran and found nothing;
//! * every rank's metric windows partition its totals exactly.
//!
//! What a relation cannot state — absolute fingerprints, window
//! attribution of a double kill, budget breach payloads, the degraded
//! serial fallback — stays a plain `#[test]` on the same [`outcome`].

// Each suite uses its own share of the harness.
#![allow(dead_code)]

use pgr_circuit::scenarios::{ScenarioFamily, ScenarioSpec};
use pgr_circuit::{generate, Circuit, GeneratorConfig};
use pgr_mpi::fault::{FAULTS_DELAYED, FAULTS_DROPPED, FAULTS_DUPLICATED, FAULTS_REORDERED};
use pgr_mpi::{
    stats_json, ChaosConfig, ChaosLayer, ClockMode, InstrumentConfig, MachineModel, Phase,
    RankStats, ReliabilityConfig, ResourceBudget, RunMeta,
};
use pgr_obs::recovery_names;
use pgr_router::metrics::names;
use pgr_router::{
    route_parallel_guarded, verify, Algorithm, GuardedOutcome, PartitionKind, RecoveryPolicy,
    RouterConfig,
};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};

// ---------------------------------------------------------------- axis

/// One input of the circuit axis: a circuit and the router settings it
/// is routed with.
pub struct Case {
    pub circuit: Circuit,
    cfg: RouterConfig,
    kind: PartitionKind,
}

impl Case {
    fn new(circuit: Circuit, seed: u64) -> Case {
        Case {
            circuit,
            cfg: RouterConfig::with_seed(seed),
            kind: PartitionKind::PinWeight,
        }
    }
}

pub struct Cases {
    /// `ScenarioFamily::ALL` at scale 0.25, default router settings.
    pub families: Vec<Case>,
    /// The circuit the absolute fingerprints are pinned on.
    pub golden: Case,
    /// The circuit of the kill and chaos schedules.
    pub small: Case,
    /// The circuit of the budget levers.
    pub budget: Case,
}

pub fn cases() -> &'static Cases {
    static CASES: OnceLock<Cases> = OnceLock::new();
    CASES.get_or_init(|| {
        let families = ScenarioFamily::ALL
            .iter()
            .map(|&f| {
                let circuit = ScenarioSpec::new(f, 0.25, 7).generate();
                circuit.validate().expect("valid scenario");
                Case::new(circuit, RouterConfig::default().seed)
            })
            .collect();
        let small = |tag: &str, seed| generate(&GeneratorConfig::small(tag, seed));
        Cases {
            families,
            golden: Case::new(small("golden", 23), 11),
            small: Case::new(small("small", 17), 9),
            budget: Case::new(small("budget", 13), 1997),
        }
    })
}

/// One driver at one world size on one circuit.
#[derive(Clone, Copy)]
pub struct Cell {
    pub case: &'static Case,
    pub algo: Algorithm,
    pub procs: usize,
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = &self.case.circuit.name;
        write!(f, "{name} {} P={}", self.algo.name(), self.procs)
    }
}

const EVERY_P: [usize; 4] = [1, 2, 3, 4];
pub const KILL_P: [usize; 2] = [3, 4];

/// Every `drivers` × `procs` cell of `cases`, each P clamped to the
/// driver's world and the circuit's rows (duplicates dropped).
pub fn grid(
    cases: impl IntoIterator<Item = &'static Case>,
    procs: &[usize],
    drivers: &[Algorithm],
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for case in cases {
        for &algo in drivers {
            let mut seen = Vec::new();
            for &p in procs {
                let procs = algo.ranks(p).min(case.circuit.num_rows());
                if !seen.contains(&procs) {
                    seen.push(procs);
                    cells.push(Cell { case, algo, procs });
                }
            }
        }
    }
    cells
}

/// The families' full grid: every driver at every P.
pub fn families() -> Vec<Cell> {
    grid(&cases().families, &EVERY_P, &Algorithm::DRIVERS)
}

/// Serial plus every parallel driver at P ∈ {1, 3}: the cells of the
/// golden fingerprints and of the budget levers.
pub fn one_and_three(case: &'static Case) -> Vec<Cell> {
    grid([case], &[1, 3], &Algorithm::DRIVERS)
}

pub fn golden(algo: Algorithm, procs: usize) -> Cell {
    let case = &cases().golden;
    Cell { case, algo, procs }
}

pub fn small(algo: Algorithm, procs: usize) -> Cell {
    let case = &cases().small;
    Cell { case, algo, procs }
}

// ---------------------------------------------------------------- runs

/// How a cell is run. `Setup::default()` is the plain run: full
/// instrumentation, virtual clock, SparcCenter 1000, no budget, no
/// faults.
#[derive(Clone, Debug, Default)]
pub struct Setup {
    /// `InstrumentConfig::off()` instead of `full()`.
    pub off: bool,
    pub wall: bool,
    pub machine: Machine,
    /// The net partition, when not the case's own.
    pub kind: Option<PartitionKind>,
    pub budget: ResourceBudget,
    pub chaos: Option<ChaosConfig>,
    pub max_rounds: Option<u32>,
    /// The second of two identical runs (`rerun` compares it with the
    /// first).
    pub second: bool,
}

#[derive(Clone, Copy, Debug, Default)]
pub enum Machine {
    #[default]
    SparcCenter,
    Paragon,
    Ideal,
}

pub fn plain() -> Setup {
    Setup::default()
}

/// Run under `chaos`, with the reliable transport on.
pub fn faults(chaos: ChaosConfig) -> Setup {
    let chaos = Some(chaos);
    Setup { chaos, ..plain() }
}

/// Kill each `(rank, boundary)`, no message faults.
pub fn kills(kills: Vec<(usize, u64)>) -> Setup {
    let mut chaos = ChaosConfig::messages_only(31);
    (chaos.drop, chaos.reorder, chaos.duplicate, chaos.delay) = (0.0, 0.0, 0.0, 0.0);
    chaos.kills = kills;
    faults(chaos)
}

/// Kill `rank` at boundary `b` under the message faults of seed 31.
pub fn noisy_kill(rank: usize, b: u64) -> Setup {
    let mut chaos = ChaosConfig::messages_only(31);
    chaos.kills = vec![(rank, b)];
    faults(chaos)
}

pub fn budget(budget: ResourceBudget) -> Setup {
    Setup { budget, ..plain() }
}

#[derive(Clone)]
pub struct Run {
    pub cell: Cell,
    pub setup: Setup,
}

impl Run {
    pub fn new(cell: Cell, setup: Setup) -> Run {
        Run { cell, setup }
    }

    pub fn plain(cell: Cell) -> Run {
        Run::new(cell, plain())
    }

    fn machine(&self) -> MachineModel {
        match self.setup.machine {
            Machine::SparcCenter => MachineModel::sparc_center_1000(),
            Machine::Paragon => MachineModel::intel_paragon(),
            Machine::Ideal => MachineModel::ideal(),
        }
    }

    fn route(&self) -> GuardedOutcome {
        let (case, s) = (self.cell.case, &self.setup);
        let cfg = RouterConfig {
            clock: if s.wall {
                ClockMode::Wall
            } else {
                ClockMode::Virtual
            },
            budget: s.budget,
            recovery: match s.max_rounds {
                Some(max_rounds) => RecoveryPolicy { max_rounds },
                None => case.cfg.recovery,
            },
            ..case.cfg.clone()
        };
        let mut instr = if s.off {
            InstrumentConfig::off()
        } else {
            InstrumentConfig::full()
        };
        if let Some(chaos) = &s.chaos {
            instr.fault = Some(Arc::new(ChaosLayer::new(chaos.clone())));
            instr.reliability = ReliabilityConfig::on();
        }
        route_parallel_guarded(
            &case.circuit,
            &cfg,
            self.cell.algo,
            s.kind.unwrap_or(case.kind),
            self.cell.procs,
            self.machine(),
            instr,
        )
    }

    /// The `stats.json` this run writes.
    pub fn dump(&self, out: &GuardedOutcome) -> String {
        let meta = RunMeta {
            degraded: out.degraded,
            ..RunMeta::new(
                &self.cell.case.circuit.name,
                self.cell.algo.name(),
                out.stats.len(),
                self.machine().name,
                1.0,
                self.cell.case.cfg.seed,
            )
        };
        stats_json(&out.stats, &self.machine(), &meta)
    }
}

impl fmt::Display for Run {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:?}", self.cell, self.setup)
    }
}

pub fn with(cells: Vec<Cell>, setup: Setup) -> Vec<Run> {
    let run = |cell| Run::new(cell, setup.clone());
    cells.into_iter().map(run).collect()
}

pub fn counter_sum(out: &GuardedOutcome, name: &str) -> u64 {
    out.metrics.iter().filter_map(|m| m.counter(name)).sum()
}

/// Sum of `name` inside the window of `phase` across all rank shards.
pub fn window_sum(out: &GuardedOutcome, phase: Phase, name: &str) -> u64 {
    out.metrics
        .iter()
        .filter_map(|m| m.window(phase.name()).and_then(|w| w.counter(name)))
        .sum()
}

/// The outcome of `run`, routed once per process and checked against
/// the cell invariant.
pub fn outcome(run: &Run) -> Arc<GuardedOutcome> {
    type Slot = Arc<OnceLock<Arc<GuardedOutcome>>>;
    static RUNS: Mutex<BTreeMap<String, Slot>> = Mutex::new(BTreeMap::new());
    let key = run.to_string();
    let slot = RUNS.lock().unwrap().entry(key).or_default().clone();
    slot.get_or_init(|| {
        let out = catch_unwind(AssertUnwindSafe(|| run.route())).unwrap_or_else(|_| {
            panic!("{run}: panicked instead of ending in a result or a RouteError")
        });
        invariant(run, &out);
        Arc::new(out)
    })
    .clone()
}

fn invariant(run: &Run, out: &GuardedOutcome) {
    let circuit = &run.cell.case.circuit;
    for m in &out.metrics {
        m.windows_partition_totals()
            .unwrap_or_else(|broken| panic!("{run}: {broken}"));
    }
    let Ok(result) = &out.result else { return };
    let violations = verify::verify(circuit, result);
    assert!(violations.is_empty(), "{run}: {violations:?}");
    assert!(
        result
            .spans
            .iter()
            .all(|s| s.net.index() < circuit.num_nets()),
        "{run}: a span names a net the circuit lacks"
    );
    if out.degraded || out.budget_degraded || counter_sum(out, names::RECOVERY_EVENTS) > 0 {
        assert!(
            out.metrics
                .iter()
                .any(|m| m.counter(names::VERIFY_VIOLATIONS).is_some()),
            "{run}: the self-check did not run"
        );
        assert_eq!(counter_sum(out, names::VERIFY_VIOLATIONS), 0, "{run}");
    }
}

/// The largest per-rank modeled footprint of a run.
pub fn peak(out: &GuardedOutcome) -> u64 {
    out.stats.iter().map(|s| s.peak_mem).max().unwrap_or(0)
}

/// A budget generous on every axis for the run `out` made unbudgeted.
fn generous(out: &GuardedOutcome) -> ResourceBudget {
    ResourceBudget {
        max_phase_seconds: Some(out.time * 10.0 + 1.0),
        max_rank_bytes: Some(peak(out) * 4),
        max_recovery_rounds: Some(8),
    }
}

/// The generous budget of `cell`, from its plain run.
pub fn generous_budget(cell: Cell) -> Setup {
    budget(generous(&outcome(&Run::plain(cell))))
}

/// Half the probe's peak footprint: every driver must breach it.
pub fn tight_bytes(cell: Cell) -> Setup {
    let peak = peak(&outcome(&Run::plain(cell)));
    assert!(peak > 0, "{cell}: probe saw no footprint");
    budget(ResourceBudget {
        max_rank_bytes: Some(peak / 2),
        ..ResourceBudget::unlimited()
    })
}

/// The recovery-policy breach schedules whose serial fallback is pinned
/// by `exhausting_max_rounds_degrades_to_serial_fallback`.
pub fn fallback_runs() -> Vec<Run> {
    let one_round = |rank, b| Setup {
        max_rounds: Some(1),
        ..noisy_kill(rank, b)
    };
    vec![
        Run::new(small(Algorithm::Hybrid, 4), one_round(3, 2)),
        Run::new(small(Algorithm::RowWise, 4), one_round(1, 1)),
    ]
}

// ----------------------------------------------------------- relations

/// A field two runs must agree on, bit for bit.
#[derive(Clone, Copy, Debug)]
enum Field {
    Result,
    /// `time.to_bits()`.
    Time,
    Stats,
    /// Stats with every rank's `wall` measurement removed.
    VirtualStats,
    Metrics,
    /// The `stats.json` bytes.
    StatsJson,
    /// Every rank's phase-mark names, in order.
    PhaseNames,
    /// Every rank's metric-window names, in order.
    WindowNames,
}

impl Field {
    fn assert_equal(self, ctx: &str, v: (&Run, &GuardedOutcome), r: (&Run, &GuardedOutcome)) {
        let strip_wall = |stats: &[RankStats]| -> Vec<RankStats> {
            let unwalled = |s: &RankStats| RankStats {
                wall: None,
                ..s.clone()
            };
            stats.iter().map(unwalled).collect()
        };
        let phase_names = |o: &GuardedOutcome| -> Vec<Vec<&str>> {
            let names = |s: &RankStats| s.phases.iter().map(|(n, _)| *n).collect();
            o.stats.iter().map(names).collect()
        };
        let window_names = |o: &GuardedOutcome| -> Vec<Vec<String>> {
            let names = |m: &pgr_mpi::RankMetrics| m.windows.iter().map(|w| w.0.clone()).collect();
            o.metrics.iter().map(names).collect()
        };
        let ((vrun, v), (rrun, r)) = (v, r);
        let same = match self {
            Field::Result => v.result == r.result,
            Field::Time => v.time.to_bits() == r.time.to_bits(),
            Field::Stats => v.stats == r.stats,
            Field::VirtualStats => strip_wall(&v.stats) == strip_wall(&r.stats),
            Field::Metrics => v.metrics == r.metrics,
            Field::StatsJson => vrun.dump(v) == rrun.dump(r),
            Field::PhaseNames => phase_names(v) == phase_names(r),
            Field::WindowNames => window_names(v) == window_names(r),
        };
        assert!(same, "{ctx}: {self:?} differs");
    }
}

/// One relation over the runs of one axis.
pub struct Relation {
    name: &'static str,
    variants: Vec<Run>,
    /// The run a variant is held to.
    reference: fn(&Run) -> Run,
    equal: &'static [Field],
    /// What else a pair must satisfy: `(context, variant run, variant
    /// outcome, reference outcome)`.
    also: fn(&str, &Run, &GuardedOutcome, &GuardedOutcome),
}

/// Hold every variant of `relation` to its reference.
pub fn check(relation: Relation) {
    assert!(!relation.variants.is_empty(), "{}: no runs", relation.name);
    for variant in &relation.variants {
        let reference = (relation.reference)(variant);
        let (v, r) = (outcome(variant), outcome(&reference));
        let ctx = format!("{}: {variant} against {reference}", relation.name);
        for field in relation.equal {
            field.assert_equal(&ctx, (variant, &v), (&reference, &r));
        }
        (relation.also)(&ctx, variant, &v, &r);
    }
}

fn same_cell(run: &Run) -> Run {
    Run::plain(run.cell)
}

/// A fresh fault-free world one rank smaller.
fn smaller_world(run: &Run) -> Run {
    Run::plain(Cell {
        procs: run.cell.procs - 1,
        ..run.cell
    })
}

fn nothing_else(_: &str, _: &Run, _: &GuardedOutcome, _: &GuardedOutcome) {}

/// The message schedules of `chaos_masked` that fire no fault, so their
/// equality holds vacuously: row-wise at P = 3 sends 22 messages, and
/// seed 3 spares every one.
const SPARED: [(Algorithm, usize, u64); 1] = [(Algorithm::RowWise, 3, 3)];

impl Relation {
    /// At P = 1 every driver is the serial algorithm: the same result,
    /// phase marks and metric windows.
    pub fn one_rank_is_serial(cells: Vec<Cell>) -> Relation {
        Relation {
            name: "one_rank_is_serial",
            variants: with(cells, plain()),
            reference: |run| {
                let algo = Algorithm::Serial;
                Run::plain(Cell { algo, ..run.cell })
            },
            equal: &[Field::Result, Field::PhaseNames, Field::WindowNames],
            also: nothing_else,
        }
    }

    /// A second run of each of `runs` is the first, byte for byte.
    pub fn rerun(mut runs: Vec<Run>) -> Relation {
        for run in &mut runs {
            run.setup.second = true;
        }
        Relation {
            name: "rerun",
            variants: runs,
            reference: |run| {
                let setup = Setup {
                    second: false,
                    ..run.setup.clone()
                };
                Run::new(run.cell, setup)
            },
            equal: &[
                Field::Result,
                Field::Time,
                Field::Stats,
                Field::Metrics,
                Field::StatsJson,
            ],
            also: nothing_else,
        }
    }

    /// The wall clock changes only the `wall` measurements, which every
    /// rank carries in Wall mode and none in virtual mode.
    pub fn wall_clock(cells: Vec<Cell>) -> Relation {
        Relation {
            name: "wall_clock",
            variants: with(
                cells,
                Setup {
                    wall: true,
                    ..plain()
                },
            ),
            reference: same_cell,
            equal: &[
                Field::Result,
                Field::Time,
                Field::VirtualStats,
                Field::Metrics,
            ],
            also: |ctx, _, v, r| {
                assert!(
                    r.stats.iter().all(|s| s.wall.is_none()),
                    "{ctx}: virtual run measured"
                );
                assert!(
                    v.stats.iter().all(|s| s.wall.is_some()),
                    "{ctx}: a rank unmeasured"
                );
            },
        }
    }

    /// Instrumentation off changes neither the result nor the clock.
    pub fn instrumented(cells: Vec<Cell>) -> Relation {
        Relation {
            name: "instrumented",
            variants: with(
                cells,
                Setup {
                    off: true,
                    ..plain()
                },
            ),
            reference: same_cell,
            equal: &[Field::Result, Field::Time],
            also: nothing_else,
        }
    }

    /// The Paragon and ideal machines make the SparcCenter's decisions
    /// in a different time.
    pub fn platform(cells: Vec<Cell>) -> Relation {
        let on = |machine| with(cells.clone(), Setup { machine, ..plain() });
        Relation {
            name: "platform",
            variants: [on(Machine::Paragon), on(Machine::Ideal)].concat(),
            reference: same_cell,
            equal: &[Field::Result],
            also: |ctx, _, v, r| assert!(v.time != r.time, "{ctx}: the machines' times agree"),
        }
    }

    /// Message chaos with seeds 3 and 77 under the reliable transport is
    /// the fault-free run, `stats.json` bytes included; a fault fires
    /// and no recovery runs.
    pub fn chaos_masked(cells: Vec<Cell>) -> Relation {
        let seeds = [3, 77].map(|seed| faults(ChaosConfig::messages_only(seed)));
        Relation {
            name: "chaos_masked",
            variants: seeds
                .into_iter()
                .flat_map(|setup| with(cells.clone(), setup))
                .collect(),
            reference: same_cell,
            equal: &[Field::Result, Field::Stats, Field::Time, Field::StatsJson],
            also: |ctx, run, v, _| {
                let fired: u64 = [
                    FAULTS_DROPPED,
                    FAULTS_DELAYED,
                    FAULTS_REORDERED,
                    FAULTS_DUPLICATED,
                ]
                .iter()
                .map(|name| counter_sum(v, name))
                .sum();
                let seed = run.setup.chaos.as_ref().unwrap().seed;
                let spared = SPARED.contains(&(run.cell.algo, run.cell.procs, seed));
                assert_eq!(fired == 0, spared, "{ctx}: {fired} faults fired");
                assert_eq!(
                    counter_sum(v, names::RECOVERY_EVENTS),
                    0,
                    "{ctx}: a recovery ran"
                );
            },
        }
    }

    /// Killing one rank at boundary b is a fresh world one rank smaller,
    /// with the checkpoint accounting of a resume from min(b, 2).
    pub fn kill_resume(kills: Vec<Run>) -> Relation {
        Relation {
            name: "kill_resume",
            variants: kills,
            reference: smaller_world,
            equal: &[Field::Result],
            also: |ctx, run, v, r| {
                let b = run.setup.chaos.as_ref().unwrap().kills[0].1;
                let survivors = (run.cell.procs - 1) as u64;
                let count = |name| counter_sum(v, name);
                assert!(!v.degraded, "{ctx}: degraded instead of recovering");
                assert_eq!(count(names::RECOVERY_EVENTS), survivors, "{ctx}");
                assert_eq!(count(names::RANKS_LOST), survivors, "{ctx}");
                assert_eq!(count(recovery_names::CHECKPOINT_CRC_FAILURES), 0, "{ctx}");
                if b == 0 {
                    // Killed entering the first phase: nothing was
                    // committed, so the round restarts from scratch — and
                    // nothing had completed, so nothing counts as redone
                    // and the clock is the fresh world's.
                    assert_eq!(v.time.to_bits(), r.time.to_bits(), "{ctx}: work was lost");
                    assert_eq!(count(recovery_names::FULL_RESTARTS), survivors, "{ctx}");
                    assert_eq!(count(recovery_names::CHECKPOINT_RESTORES), 0, "{ctx}");
                    assert_eq!(count(recovery_names::REDONE_PHASES), 0, "{ctx}");
                } else {
                    // Resume from min(b, 2): the coarse boundary is the
                    // portable horizon.
                    assert_eq!(count(recovery_names::FULL_RESTARTS), 0, "{ctx}");
                    assert_eq!(
                        count(recovery_names::CHECKPOINT_RESTORES),
                        survivors,
                        "{ctx}"
                    );
                    let redone = (b - b.min(2)) * survivors;
                    assert_eq!(count(recovery_names::REDONE_PHASES), redone, "{ctx}");
                    assert!(
                        count(recovery_names::CHECKPOINT_COMMITS) > 0,
                        "{ctx}: no commit"
                    );
                }
            },
        }
    }

    /// Rank 0 — the distribution master and assembly root — dies after
    /// setup; the lowest survivor takes its place, and the result is a
    /// fresh world one rank smaller.
    pub fn root_kill(cells: Vec<Cell>) -> Relation {
        Relation {
            name: "root_kill",
            variants: with(cells, kills(vec![(0, 1)])),
            reference: smaller_world,
            equal: &[Field::Result],
            also: |ctx, run, v, _| {
                let survivors = (run.cell.procs - 1) as u64;
                assert_eq!(counter_sum(v, names::RECOVERY_EVENTS), survivors, "{ctx}");
            },
        }
    }

    /// A budget generous on every axis is no budget: the same result and
    /// nothing shed.
    pub fn generous_budget(cells: Vec<Cell>) -> Relation {
        let generous = |cell| Run::new(cell, generous_budget(cell));
        Relation {
            name: "generous_budget",
            variants: cells.into_iter().map(generous).collect(),
            reference: same_cell,
            equal: &[Field::Result],
            also: |ctx, _, v, _| {
                assert!(v.result.is_ok(), "{ctx}: errored");
                assert!(!v.budget_degraded, "{ctx}: shed work");
            },
        }
    }
}
