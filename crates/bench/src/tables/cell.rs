//! The cell runner: the one way a `repro` target runs a route, and the
//! artifact writers behind `--trace-out`.

use crate::{circuits, SEED};
use pgr_circuit::scenarios::ScenarioFamily;
use pgr_circuit::Circuit;
use pgr_mpi::trace::{chrome_trace_json, stats_json};
use pgr_mpi::{ClockMode, InstrumentConfig, MachineModel, RankMetrics, RankStats, RunMeta};
use pgr_obs::metrics_json;
use pgr_router::verify::assert_verified;
use pgr_router::{
    route_parallel_guarded, Algorithm, GuardedOutcome, PartitionKind, RouterConfig, RoutingResult,
};
use std::path::{Path, PathBuf};

/// Harness options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Circuit scale: 1.0 = the paper's full sizes.
    pub scale: f64,
    /// Restrict to these circuit names (None = all six).
    pub filter: Option<Vec<String>>,
    /// Directory to write per-run Chrome traces and stats JSON into
    /// (`--trace-out`). None = tracing off, zero overhead.
    pub trace_out: Option<PathBuf>,
    /// `chaos` target: kill-schedule override (`--kill R@B`, repeatable)
    /// as `(rank, phase-boundary index)`; boundaries are validated
    /// against the [`pgr_mpi::Phase`] registry at parse time. Empty =
    /// the default one-kill schedule.
    pub kills: Vec<(usize, u64)>,
    /// `stress` target: restrict to these adversarial families
    /// (`--family NAME`, repeatable; looked up in the [`ScenarioFamily`]
    /// registry at parse time). None = the full registry.
    pub families: Option<Vec<ScenarioFamily>>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            scale: 1.0,
            filter: None,
            trace_out: None,
            kills: Vec::new(),
            families: None,
        }
    }
}

/// Write one run's artifacts into `dir` (created if missing): the
/// rendered Chrome trace (`<label>.trace.json`, for `chrome://tracing` /
/// Perfetto — [`chrome_trace_json`], or the profile target's annotated
/// one), the per-rank stats (`<label>.stats.json`), and — when metric
/// shards were collected — the per-rank metrics
/// (`<label>.metrics.json`). Returns the trace path.
pub fn write_traces(
    dir: &Path,
    label: &str,
    trace_json: String,
    stats: &[RankStats],
    machine: &MachineModel,
    run: &RunMeta,
    metrics: &[RankMetrics],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let file = |kind: &str| dir.join(format!("{label}.{kind}.json"));
    std::fs::write(file("trace"), trace_json)?;
    std::fs::write(file("stats"), stats_json(stats, machine, run))?;
    if !metrics.is_empty() {
        std::fs::write(file("metrics"), metrics_json(run, metrics))?;
    }
    Ok(file("trace"))
}

/// One cell of a reproduction table, end to end: run any of the four
/// [`Algorithm::DRIVERS`] — `(algorithm, net partition, ranks)`; serial
/// ignores the last two — on `machine` through the guarded harness,
/// verify a completed route against the circuit, and — given an `emit`
/// destination `(dir, label, run descriptor)` — write the run's
/// artifacts, stamped with what the run turned out to be (`degraded`,
/// `budget_degraded`, the clock mode). A failed write warns on stderr
/// and the harness carries on.
///
/// The clock comes from `cfg.clock`, whatever `instr.clock` says (the
/// router config owns the clock strategy). A budget breach comes back in
/// `result` as the structured error; the partial run's artifacts are
/// still written.
pub fn run_cell(
    circuit: &Circuit,
    cfg: &RouterConfig,
    (algorithm, kind, procs): (Algorithm, PartitionKind, usize),
    machine: MachineModel,
    instr: InstrumentConfig,
    emit: Option<(&Path, &str, RunMeta)>,
) -> GuardedOutcome {
    let out = route_parallel_guarded(circuit, cfg, algorithm, kind, procs, machine, instr);
    if let Ok(result) = &out.result {
        assert_verified(circuit, result);
    }
    if let Some((dir, label, mut run)) = emit {
        run.degraded = out.degraded;
        run.budget_degraded = out.budget_degraded;
        if cfg.clock == ClockMode::Wall {
            run.clock = "wall".into();
        }
        let trace = chrome_trace_json(&out.traces);
        if let Err(e) = write_traces(dir, label, trace, &out.stats, &machine, &run, &out.metrics) {
            eprintln!("trace write failed for {label}: {e}");
        }
    }
    out
}

/// The route of a cell that cannot breach (no budget armed).
pub(super) fn routed(out: &GuardedOutcome) -> &RoutingResult {
    out.result.as_ref().expect("an unbudgeted cell routes")
}

impl Opts {
    /// Full instrumentation (trace + metrics) when `--trace-out` is set;
    /// everything off — and allocation-free — otherwise.
    pub(super) fn instrument(&self) -> InstrumentConfig {
        if self.trace_out.is_some() {
            InstrumentConfig::full()
        } else {
            InstrumentConfig::off()
        }
    }

    /// The run descriptor stamped into every artifact of this harness.
    pub(super) fn run_meta(
        &self,
        circuit: &str,
        algorithm: &str,
        procs: usize,
        machine: &MachineModel,
    ) -> RunMeta {
        RunMeta::new(circuit, algorithm, procs, machine.name, self.scale, SEED)
    }

    /// Artifact destination of one cell: `None` without `--trace-out`.
    pub(super) fn emit<'a>(
        &'a self,
        label: &'a str,
        run: RunMeta,
    ) -> Option<(&'a Path, &'a str, RunMeta)> {
        self.trace_out.as_deref().map(|dir| (dir, label, run))
    }

    /// A table cell under the default net partition: `algo` over `procs`
    /// ranks of `machine`. Given a `label`, the cell is instrumented per
    /// `--trace-out` and its artifacts are written under that name;
    /// without one it runs uninstrumented and writes nothing (the serial
    /// base of a speedup column, say).
    pub(super) fn cell(
        &self,
        c: &Circuit,
        cfg: &RouterConfig,
        algo: Algorithm,
        procs: usize,
        machine: MachineModel,
        label: Option<&str>,
    ) -> GuardedOutcome {
        let emit = label.and_then(|label| {
            self.emit(label, self.run_meta(&c.name, algo.name(), procs, &machine))
        });
        let instr = match label {
            Some(_) => self.instrument(),
            None => InstrumentConfig::off(),
        };
        let driver = (algo, PartitionKind::PinWeight, procs);
        run_cell(c, cfg, driver, machine, instr, emit)
    }

    pub(super) fn circuits(&self) -> Vec<Circuit> {
        circuits(self.scale, self.filter.as_deref())
    }

    pub(super) fn note_scale(&self) {
        if self.scale < 1.0 {
            println!(
                "(circuits scaled to {:.0} % of the paper's sizes)",
                self.scale * 100.0
            );
        }
    }
}

pub(super) fn cfg() -> RouterConfig {
    RouterConfig::with_seed(SEED)
}

/// Virtual seconds a rank spent in the phase `name`, re-entries (recovery
/// rounds) summed.
pub(super) fn phase_seconds(stats: &RankStats, name: &str) -> f64 {
    let spans = stats.phases.iter().filter(|(n, _)| *n == name);
    spans.map(|(_, secs)| secs).sum()
}

/// Clamp a rank count to the circuit's row count (row partitions need at
/// least one row per rank).
pub(super) fn clamp_procs(p: usize, circuit: &Circuit) -> usize {
    p.min(circuit.num_rows())
}

/// The rank part of an artifact label: `_p<P>` on a parallel cell,
/// nothing on a serial one — the file names `--trace-out` has always
/// written (CI globs and `ci/baseline-aggregate.json` key on them).
pub(super) fn rank_suffix(algo: Algorithm, p: usize) -> String {
    match algo {
        Algorithm::Serial => String::new(),
        _ => format!("_p{p}"),
    }
}
