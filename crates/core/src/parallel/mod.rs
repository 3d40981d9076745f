//! The three parallel global-routing algorithms (§4–§6) and the harness
//! that runs them — and the serial router they are scaled to — over
//! [`pgr_mpi`] ranks.

pub mod common;
pub mod hybrid;
pub mod netwise;
pub mod partition;
pub mod rowwise;

use crate::config::RouterConfig;
use crate::engine::{self, RouteError};
use crate::metrics::{names, RoutingResult};
use crate::route::serial::SerialPipeline;
use partition::PartitionKind;
use pgr_circuit::Circuit;
use pgr_mpi::{
    run_instrumented, Comm, InstrumentConfig, MachineModel, RankMetrics, RankStats, RankTrace,
};
use pgr_obs::budget_names;

/// Which driver to run: the serial router or one of the paper's three
/// parallel algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The serial TWGR router (§2) — the run every speedup and scaled
    /// track count of Tables 2–5 is relative to. Always one rank; the
    /// net partition is ignored.
    Serial,
    /// Row-wise pin partition (§4): fastest, ≈3 % quality loss.
    RowWise,
    /// Net-wise pin partition (§5): poor speedups, largest quality loss.
    NetWise,
    /// Hybrid pin partition (§6): best quality, near-row-wise speed.
    Hybrid,
}

impl Algorithm {
    /// The paper's three parallel algorithms.
    pub const ALL: [Algorithm; 3] = [Algorithm::RowWise, Algorithm::NetWise, Algorithm::Hybrid];

    /// All four drivers: the serial baseline, then [`Algorithm::ALL`].
    pub const DRIVERS: [Algorithm; 4] = [
        Algorithm::Serial,
        Algorithm::RowWise,
        Algorithm::NetWise,
        Algorithm::Hybrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Serial => "serial",
            Algorithm::RowWise => "row-wise",
            Algorithm::NetWise => "net-wise",
            Algorithm::Hybrid => "hybrid",
        }
    }

    /// The world size a `procs`-rank run of this driver has: the serial
    /// router's is always one.
    pub fn ranks(self, procs: usize) -> usize {
        match self {
            Algorithm::Serial => 1,
            _ => procs,
        }
    }

    /// Run this driver on the calling rank — the SPMD entry point,
    /// [`engine::drive`] over the driver's pipeline ([`Algorithm::Serial`]
    /// expects a one-rank world). Returns the
    /// global result on the lowest surviving rank and `None` elsewhere
    /// (a rank killed by the fault layer's schedule also holds `None`);
    /// an armed [`pgr_mpi::ResourceBudget`] breach surfaces as the
    /// identical structured [`RouteError`] on every rank.
    pub fn try_route(
        self,
        circuit: &Circuit,
        cfg: &RouterConfig,
        kind: PartitionKind,
        comm: &mut Comm,
    ) -> Result<Option<RoutingResult>, RouteError> {
        match self {
            Algorithm::Serial => engine::drive::<SerialPipeline>(circuit, cfg, kind, comm),
            Algorithm::RowWise => {
                engine::drive::<rowwise::RowWisePipeline>(circuit, cfg, kind, comm)
            }
            Algorithm::NetWise => {
                engine::drive::<netwise::NetWisePipeline>(circuit, cfg, kind, comm)
            }
            Algorithm::Hybrid => engine::drive::<hybrid::HybridPipeline>(circuit, cfg, kind, comm),
        }
    }
}

/// The outcome of one routing run. A resource-budget breach
/// lands in `result` as a structured [`RouteError`]; the timing, stats,
/// traces, and metric shards of the partial run are still returned for
/// post-mortem analysis.
#[derive(Debug)]
pub struct GuardedOutcome {
    /// The assembled route, or the agreed budget breach (identical on
    /// every rank of the run).
    pub result: Result<RoutingResult, RouteError>,
    /// Simulated wall-clock (the slowest rank's virtual time).
    pub time: f64,
    /// Real host makespan in seconds — `Some` only when the run used
    /// [`pgr_mpi::ClockMode::Wall`] (see [`RouterConfig::clock`]).
    pub wall_time: Option<f64>,
    pub stats: Vec<RankStats>,
    /// Whether every rank's modeled working set fit the machine's
    /// per-node memory (always true on machines without a cap).
    pub fits_memory: bool,
    /// Per-rank event traces (empty unless tracing was enabled).
    pub traces: Vec<RankTrace>,
    /// Per-rank metric shards (empty unless metrics were enabled).
    pub metrics: Vec<RankMetrics>,
    /// The run spent its [`RouterConfig::recovery_rounds`] and was
    /// completed by the serial fallback (derived from the
    /// [`parallel.degraded_serial`](names::DEGRADED_SERIAL) counter, so
    /// it is only observable when metrics were enabled).
    pub degraded: bool,
    /// Some rank shed optional refinement work under an armed
    /// [`pgr_mpi::ResourceBudget`]'s time pressure (derived from the
    /// [`budget.shed_events`](budget_names::SHED_EVENTS) counter, so it
    /// is only observable when metrics were enabled). Shed runs are
    /// verified by [`crate::verify::check`] before they return.
    pub budget_degraded: bool,
}

/// The harness: runs `algorithm` over `procs` simulated ranks of
/// `machine` ([`Algorithm::Serial`] over one, whatever `procs` says) and
/// returns either rank 0's assembled (and, when shed or recovered,
/// *verified*) route or the structured [`RouteError`] the world agreed
/// on, plus simulated timing. Never panics on a breach.
/// `instr` selects per-rank traces and metric shards
/// ([`InstrumentConfig::off`] for neither); when metrics are on, rank 0's
/// shard of a parallel run additionally carries the post-run
/// [`parallel.load_imbalance`](names::LOAD_IMBALANCE) gauge
/// (max rank time / mean rank time — 1.0 is a perfectly balanced run).
/// No single rank can see that number during the run, so it is derived
/// here from the per-rank virtual clocks; a serial run has no partition
/// to be imbalanced and gets none.
pub fn route_parallel_guarded(
    circuit: &Circuit,
    cfg: &RouterConfig,
    algorithm: Algorithm,
    kind: PartitionKind,
    procs: usize,
    machine: MachineModel,
    instr: InstrumentConfig,
) -> GuardedOutcome {
    // The router config owns the clock strategy; the instrumentation
    // bundle merely carries it into the substrate.
    let instr = InstrumentConfig {
        clock: cfg.clock,
        ..instr
    };
    let ranks = algorithm.ranks(procs);
    let (report, traces, mut metrics) = run_instrumented(ranks, machine, instr, |comm| {
        algorithm.try_route(circuit, cfg, kind, comm)
    });
    let fits_memory = report.fits_memory();
    let time = report.makespan();
    let wall_time = report.wall_makespan();
    let parallel = algorithm != Algorithm::Serial;
    if let Some(root) = metrics.first_mut().filter(|_| parallel) {
        let mean = report.stats.iter().map(|s| s.time).sum::<f64>() / report.stats.len() as f64;
        if mean > 0.0 {
            root.set_gauge(names::LOAD_IMBALANCE, time / mean);
        }
    }
    // Every surviving rank returns the identical Err on a breach (the
    // engine's agreement collective guarantees it); otherwise exactly
    // the lowest surviving rank returns Some. Either way the first rank
    // that holds anything holds the run's verdict.
    let result = report
        .results
        .into_iter()
        .find_map(Result::transpose)
        .expect("the lowest surviving rank returns the assembled result or the agreed error");
    let counted = |name| metrics.iter().any(|m| m.counter(name).unwrap_or(0) > 0);
    GuardedOutcome {
        result,
        time,
        wall_time,
        stats: report.stats,
        fits_memory,
        degraded: counted(names::DEGRADED_SERIAL),
        budget_degraded: counted(budget_names::SHED_EVENTS),
        traces,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgr_circuit::{generate, GeneratorConfig};

    #[test]
    fn route_parallel_wraps_all_algorithms() {
        let c = generate(&GeneratorConfig::small("wrap", 8));
        let cfg = RouterConfig::with_seed(1);
        for algo in Algorithm::DRIVERS {
            let out = route_parallel_guarded(
                &c,
                &cfg,
                algo,
                PartitionKind::PinWeight,
                2,
                MachineModel::sparc_center_1000(),
                InstrumentConfig::off(),
            );
            assert!(
                out.result.as_ref().unwrap().track_count() > 0,
                "{}",
                algo.name()
            );
            assert!(out.time > 0.0);
            assert_eq!(out.stats.len(), algo.ranks(2), "{}", algo.name());
            assert!(out.fits_memory, "SMP has no memory cap");
        }
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(Algorithm::Serial.name(), "serial");
        assert_eq!(Algorithm::RowWise.name(), "row-wise");
        assert_eq!(Algorithm::NetWise.name(), "net-wise");
        assert_eq!(Algorithm::Hybrid.name(), "hybrid");
    }

    #[test]
    fn instrumented_run_collects_metrics_and_traces() {
        let c = generate(&GeneratorConfig::small("instr", 8));
        let cfg = RouterConfig::with_seed(1);
        for algo in Algorithm::ALL {
            let out = route_parallel_guarded(
                &c,
                &cfg,
                algo,
                PartitionKind::PinWeight,
                4,
                MachineModel::sparc_center_1000(),
                InstrumentConfig::full(),
            );
            let name = algo.name();
            assert_eq!(out.metrics.len(), 4, "{name}: one shard per rank");
            assert_eq!(out.traces.len(), 4, "{name}: one trace per rank");
            // Quality metrics live on rank 0 (the gather/assemble rank).
            let root = &out.metrics[0];
            assert_eq!(
                root.counter(names::TRACKS),
                Some(out.result.as_ref().unwrap().track_count() as u64),
                "{name}: tracks metric matches the result"
            );
            assert_eq!(
                root.counter(names::SPANS),
                Some(out.result.as_ref().unwrap().span_count() as u64)
            );
            let imb = root.gauge(names::LOAD_IMBALANCE).expect("imbalance gauge");
            assert!(imb >= 1.0, "{name}: max/mean is at least 1, got {imb}");
            // Load counters live on every rank; whole-chip facts merge to
            // circuit-global totals.
            let merged = pgr_obs::merge_ranks(&out.metrics);
            assert_eq!(
                merged.counter(names::ROWS_OWNED),
                Some(c.num_rows() as u64),
                "{name}: row bands tile the chip"
            );
            assert!(merged.counter(names::NETS_OWNED).unwrap_or(0) > 0, "{name}");
            let density = merged
                .histogram(names::CHANNEL_DENSITY)
                .expect("density histogram");
            assert_eq!(density.count, (c.num_rows() + 1) as u64, "{name}");
            let ft_rows = merged
                .histogram(names::FT_PER_ROW)
                .expect("ft-per-row histogram");
            assert_eq!(
                ft_rows.count,
                c.num_rows() as u64,
                "{name}: every row observed once"
            );
            assert_eq!(
                ft_rows.sum,
                out.result.as_ref().unwrap().feedthroughs,
                "{name}"
            );
        }
    }

    #[test]
    fn uninstrumented_run_collects_nothing() {
        let c = generate(&GeneratorConfig::small("instr-off", 8));
        let out = route_parallel_guarded(
            &c,
            &RouterConfig::with_seed(1),
            Algorithm::RowWise,
            PartitionKind::PinWeight,
            2,
            MachineModel::ideal(),
            InstrumentConfig::off(),
        );
        assert!(out.metrics.is_empty());
        assert!(out.traces.is_empty());
    }

    #[test]
    fn instrumentation_does_not_change_results_or_timing() {
        let c = generate(&GeneratorConfig::small("instr-same", 8));
        let cfg = RouterConfig::with_seed(3);
        let plain = route_parallel_guarded(
            &c,
            &cfg,
            Algorithm::Hybrid,
            PartitionKind::PinWeight,
            3,
            MachineModel::sparc_center_1000(),
            InstrumentConfig::off(),
        );
        let full = route_parallel_guarded(
            &c,
            &cfg,
            Algorithm::Hybrid,
            PartitionKind::PinWeight,
            3,
            MachineModel::sparc_center_1000(),
            InstrumentConfig::full(),
        );
        assert_eq!(
            plain.result.as_ref().unwrap(),
            full.result.as_ref().unwrap()
        );
        assert_eq!(plain.time, full.time, "observation is free in virtual time");
    }

    #[test]
    fn wall_clock_mode_reports_host_time_and_identical_results() {
        let c = generate(&GeneratorConfig::small("wall", 8));
        let cfg = RouterConfig::with_seed(5);
        let wall_cfg = RouterConfig {
            clock: pgr_mpi::ClockMode::Wall,
            ..cfg.clone()
        };
        for algo in Algorithm::ALL {
            let virt = route_parallel_guarded(
                &c,
                &cfg,
                algo,
                PartitionKind::PinWeight,
                3,
                MachineModel::sparc_center_1000(),
                InstrumentConfig::off(),
            );
            let wall = route_parallel_guarded(
                &c,
                &wall_cfg,
                algo,
                PartitionKind::PinWeight,
                3,
                MachineModel::sparc_center_1000(),
                InstrumentConfig::off(),
            );
            let name = algo.name();
            assert_eq!(
                virt.result.as_ref().unwrap(),
                wall.result.as_ref().unwrap(),
                "{name}: results are clock-blind"
            );
            assert_eq!(virt.time, wall.time, "{name}: virtual makespan unchanged");
            assert_eq!(virt.wall_time, None, "{name}");
            let wt = wall.wall_time.expect("wall makespan under Wall mode");
            assert!(wt > 0.0 && wt.is_finite(), "{name}: wall seconds, got {wt}");
            assert!(wall.stats.iter().all(|s| s.wall.is_some()), "{name}");
        }
    }
}
